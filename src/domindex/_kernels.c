/* Compiled search kernels.

   Twin of _pykern (see its docstring for the kernel contract): same
   candidate order, same pruning, same results and witnesses. Restricted
   to graphs with at most 64 vertices, so every mask fits one machine
   word. Long searches and scans poll for signals, so Ctrl-C stops them.

   Build with `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

typedef unsigned long long u64;

#define MAXN 64      /* vertices in one machine word */
#define MAXSCAN 26   /* 2^n subset scans: 8 * 2^26 bytes of cover table */
#define POLL 0xFFFF  /* poll for signals every 2^16 search nodes or subsets */

#define POPCOUNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)

/* Copy the int masks of the sequence `closed` into cl[]. Returns n, or
   -1 with an exception set when n is outside 1..maxn or a mask is not a
   non-negative int below 2^64. */
static int
read_closed(PyObject *closed, u64 *cl, int maxn, const char *what)
{
    PyObject *seq = PySequence_Fast(closed, "closed must be a sequence of int masks");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n < 1 || n > maxn) {
        PyErr_Format(PyExc_ValueError, "%s handles 1..%d vertices, got %zd", what, maxn, n);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        cl[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (cl[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return (int)n;
}

/* One stage of the staged search: a depth-first extension of the base
   set to at most k vertices. priv[d] holds, for a set of d chosen
   vertices, the private territory of each of them in the order chosen;
   each depth has its own row, so backtracking restores nothing. */
typedef struct {
    int n, k, v;
    u64 full, nodes;
    u64 closed[MAXN];
    int chosen[MAXN];
    u64 priv[MAXN + 1][MAXN];
} Search;

/* The size of the first hit that extends chosen[0..depth) (chosen[] then
   holds it), 0 when there is none, -1 when a signal handler raised.
   Candidates ascend by id, so a branch may add only vertices above
   `last`; the packing and budget bounds count only those, and prune only
   branches that cannot reach a hit, so the first hit is unchanged. */
static int
dfs(Search *s, int depth, int last, u64 cover)
{
    if ((++s->nodes & POLL) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    if (cover == s->full)
        return depth;
    int slots = s->k - depth;
    if (slots <= 0)
        return 0;

    /* later: the vertices this branch may still add; v's bit is harmless,
       as N[v] is covered and so dominates no uncovered vertex */
    u64 unc = s->full & ~cover;
    int next = last + 1;
    u64 later = next < s->n ? s->full >> next << next : 0;

    int need = POPCOUNT(unc);
    if (need <= slots) {
        /* neither bound can count past `slots`: only an uncovered vertex
           with no later dominator prunes */
        for (u64 rest = unc; rest != 0; rest &= rest - 1)
            if ((s->closed[CTZ(rest)] & later) == 0)
                return 0;
    } else {
        /* packing bound: uncovered vertices that share no later
           dominator each need an added vertex of their own */
        int packed = 0;
        for (u64 rest = unc; rest != 0;) {
            u64 doms = s->closed[CTZ(rest)] & later;
            if (doms == 0 || ++packed > slots)
                return 0;
            for (; doms != 0; doms &= doms - 1)
                rest &= ~s->closed[CTZ(doms)];
        }

        /* budget bound over later candidates: the best `slots` gains
           must reach `need` */
        int hist[MAXN + 1], top = 0;
        for (int c = 0; c <= s->n; c++)  /* a gain is at most |unc| <= n */
            hist[c] = 0;
        for (int x = next; x < s->n; x++) {
            int c = POPCOUNT(s->closed[x] & unc);
            hist[c]++;
            if (c > top)
                top = c;
        }
        for (int c = top; c > 0 && need > 0 && slots > 0; c--) {
            int take = hist[c] < slots ? hist[c] : slots;
            need -= take * c;
            slots -= take;
        }
        if (need > 0)
            return 0;
    }

    const u64 *privs = s->priv[depth];
    u64 *kept = s->priv[depth + 1];
    for (int x = last + 1; x < s->n; x++) {
        if (x == s->v)
            continue;
        u64 cx = s->closed[x], gain = cx & ~cover;
        if (gain == 0)
            continue;  /* x would arrive with empty private territory */
        int j = 0;
        while (j < depth && (kept[j] = privs[j] & ~cx) != 0)
            j++;
        if (j < depth)
            continue;  /* x would take a member's last private vertex */
        kept[depth] = gain;
        s->chosen[depth] = x;
        int hit = dfs(s, depth + 1, x, cover | cx);
        if (hit != 0)
            return hit;
    }
    return 0;
}

/* *out = o as a C int, or -1 with an exception set. */
static int
as_int(PyObject *o, int *out)
{
    long x = PyLong_AsLong(o);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (x < INT_MIN || x > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "value out of range for a C int");
        return -1;
    }
    *out = (int)x;
    return 0;
}

/* Vectorcall with hand-parsed arguments: degree vectors make one call
   per vertex, and most calls end in the first stage. */
static PyObject *
solve_dd(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int v, k_lo, k_hi;
    Search s;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "solve_dd expected 4 arguments, got %zd", nargs);
        return NULL;
    }
    if (as_int(args[1], &v) < 0 || as_int(args[2], &k_lo) < 0 || as_int(args[3], &k_hi) < 0)
        return NULL;
    s.n = read_closed(args[0], s.closed, MAXN, "compiled kernel");
    if (s.n < 0)
        return NULL;
    if (v >= s.n) {
        PyErr_Format(PyExc_IndexError, "vertex %d out of range for %d vertices", v, s.n);
        return NULL;
    }
    s.v = v;
    s.full = s.n == 64 ? ~0ULL : (1ULL << s.n) - 1;
    s.nodes = 0;
    int lo = k_lo < 0 ? 0 : k_lo, base = 0;
    u64 cover = 0;
    if (v >= 0) {
        if (lo < 1)
            lo = 1;
        s.chosen[0] = v;
        s.priv[1][0] = cover = s.closed[v];
        base = 1;
    }
    for (s.k = lo; s.k <= k_hi; s.k++) {
        int size = dfs(&s, base, -1, cover);
        if (size < 0)
            return NULL;
        if (size > 0) {
            u64 mask = 0;
            for (int i = 0; i < size; i++)
                mask |= 1ULL << s.chosen[i];
            PyObject *out = PyTuple_New(2);
            if (out == NULL)
                return NULL;
            PyTuple_SET_ITEM(out, 0, PyLong_FromLong(size));
            PyTuple_SET_ITEM(out, 1, PyLong_FromUnsignedLongLong(mask));
            if (PyTuple_GET_ITEM(out, 0) == NULL || PyTuple_GET_ITEM(out, 1) == NULL)
                Py_CLEAR(out);
            return out;
        }
        if (s.k >= s.n)
            break;  /* every stage above n searches the same tree as stage n */
    }
    Py_RETURN_NONE;
}

/* cover[m]: the vertices dominated by subset m, for all 2^n subsets. */
static u64 *
cover_table(const u64 *cl, int n)
{
    size_t size = (size_t)1 << n;
    u64 *cover = malloc(size * sizeof(u64));
    if (cover == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    cover[0] = 0;
    for (size_t m = 1; m < size; m++)
        cover[m] = cover[m & (m - 1)] | cl[CTZ(m)];
    return cover;
}

/* Every member of m dominates a vertex that the rest of m does not. */
static inline int
irredundant(const u64 *cl, const u64 *cover, u64 m)
{
    for (u64 rest = m; rest; rest &= rest - 1) {
        u64 low = rest & (0 - rest);
        if ((cl[CTZ(low)] & ~cover[m ^ low]) == 0)
            return 0;
    }
    return 1;
}

static PyObject *
scan_minimal_ds(PyObject *Py_UNUSED(self), PyObject *closed)
{
    u64 cl[MAXSCAN];
    int n = read_closed(closed, cl, MAXSCAN, "subset scan");
    if (n < 0)
        return NULL;
    u64 *cover = cover_table(cl, n), *found = NULL, full = (1ULL << n) - 1;
    if (cover == NULL)
        return NULL;
    size_t size = (size_t)1 << n, count = 0, room = 0;
    Py_ssize_t at[MAXSCAN + 2] = {0};
    PyObject *out = NULL;
    for (size_t m = 0; m < size; m++) {
        if ((m & POLL) == 0 && PyErr_CheckSignals() < 0)
            goto done;
        if (cover[m] != full || !irredundant(cl, cover, m))
            continue;
        if (count == room) {
            room = room ? 2 * room : 1024;
            u64 *grown = realloc(found, room * sizeof(u64));
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            found = grown;
        }
        found[count++] = m;
        at[POPCOUNT(m) + 1]++;
    }
    /* sort by (cardinality, mask): found[] is ascending, so a stable
       counting sort by cardinality suffices */
    for (int c = 1; c <= n; c++)
        at[c] += at[c - 1];
    out = PyList_New((Py_ssize_t)count);
    for (size_t i = 0; out != NULL && i < count; i++) {
        PyObject *mask = PyLong_FromUnsignedLongLong(found[i]);
        if (mask == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, at[POPCOUNT(found[i])]++, mask);
    }
done:
    free(cover);
    free(found);
    return out;
}

static PyObject *
scan_irredundance(PyObject *Py_UNUSED(self), PyObject *closed)
{
    u64 cl[MAXSCAN];
    int n = read_closed(closed, cl, MAXSCAN, "subset scan");
    if (n < 0)
        return NULL;
    u64 *cover = cover_table(cl, n), full = (1ULL << n) - 1;
    if (cover == NULL)
        return NULL;
    size_t size = (size_t)1 << n;
    unsigned char *irr = malloc(size);
    PyObject *out = NULL;
    if (irr == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int lo = n + 1, upper_gamma = 0, upper_ir = 0;
    irr[0] = 1;
    for (size_t m = 1; m < size; m++) {
        if ((m & POLL) == 0 && PyErr_CheckSignals() < 0)
            goto done;
        /* a subset of an irredundant set is irredundant */
        irr[m] = irr[m & (m - 1)] && irredundant(cl, cover, m);
        if (!irr[m])
            continue;
        int c = POPCOUNT(m);
        if (c > upper_ir)
            upper_ir = c;
        /* a dominating irredundant set is a minimal dominating set */
        if (c > upper_gamma && cover[m] == full)
            upper_gamma = c;
    }
    /* ir: the smallest irredundant set that no added vertex keeps irredundant */
    for (size_t m = 0; m < size; m++) {
        if ((m & POLL) == 0 && PyErr_CheckSignals() < 0)
            goto done;
        if (!irr[m] || POPCOUNT(m) >= lo)
            continue;
        int x = 0;
        while (x < n && ((m >> x & 1) || !irr[m | (size_t)1 << x]))
            x++;
        if (x == n)
            lo = POPCOUNT(m);
    }
    out = Py_BuildValue("(iii)", lo, upper_gamma, upper_ir);
done:
    free(cover);
    free(irr);
    return out;
}

static PyMethodDef methods[] = {
    {"solve_dd", (PyCFunction)(void (*)(void))solve_dd, METH_FASTCALL,
     "solve_dd(closed, v, k_lo, k_hi) -> (size, mask) or None"},
    {"scan_minimal_ds", scan_minimal_ds, METH_O,
     "scan_minimal_ds(closed) -> minimal dominating sets sorted by (size, mask)"},
    {"scan_irredundance", scan_irredundance, METH_O,
     "scan_irredundance(closed) -> (ir, upper gamma, IR)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT, "domindex._kernels",
    "Compiled search kernels; twin of domindex._pykern.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *mod = PyModule_Create(&kernels_module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
