/* Compiled search kernels.

   Twin of _pykern (see its docstring for the kernel contract): same
   candidate order, same pruning, same results and witnesses. One stage
   walk serves both searches, from three seeds: solve_dd(v) at the root
   {v}, solve_dd(-1) and solve_dd_all at the root ∅. Three walks of
   irredundant sets give the minimal dominating sets (scan_minimal_ds),
   Γ and IR (scan_irredundance), and ir (scan_ir, from γ down, bounded
   by the domination of G²). One bound helper, pruned, serves the stage
   walk on G and scan_ir on G². Restricted to graphs with at most 64
   vertices, so every mask fits one machine word.
   Long searches and walks poll for signals, so Ctrl-C stops them.

   Build with `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

typedef unsigned long long u64;

#define MAXN 64      /* vertices in one machine word */
#define MAXSCAN 26   /* walks of irredundant sets: exponential in n */
#define POLL 0xFFFF  /* poll for signals every 2^16 search or walk nodes */

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

/* The stage walk (see the kernel contract in _pykern): one stage
   extends the root to at most k vertices. priv[d] holds, for a set of d
   chosen vertices, the private territory of each of them in the order
   chosen; each depth has its own row, so backtracking restores nothing.
   root: the seed set, at most one vertex, whose closed neighbourhood is
   `cover`. todo: the open vertices; wild: the open vertices that every
   dominating set serves, member or not. A dominating set that serves u
   sets size[u] and found[u]. */
typedef struct {
    int n, k;
    u64 full, nodes, root, cover, todo, wild;
    u64 closed[MAXN];
    int size[MAXN];
    u64 found[MAXN];
    u64 priv[MAXN + 1][MAXN];
} Search;

/* Whether a branch that leaves `unc` uncovered, in the graph whose
   closed neighbourhoods are closed[0..n), and may still add `slots`
   vertices from `later` is pruned: no slot is left, or a bound shows
   that no such set of vertices covers `unc`: with one or two slots, an
   exact test; with more, the packing and budget bounds. The bounds
   count only the vertices the branch may still add, so they prune only
   branches that cannot cover `unc`. */
static inline __attribute__((always_inline)) int
pruned(const u64 *closed, int n, u64 unc, int slots, u64 later)
{
    if (slots <= 0)
        return 1;
    int need = POPCOUNT(unc);
    if (need <= slots) {
        /* neither bound can count past `slots`: only an uncovered vertex
           with no later dominator prunes */
        for (u64 rest = unc; rest != 0; rest &= rest - 1)
            if ((closed[CTZ(rest)] & later) == 0)
                return 1;
        return 0;
    }
    if (slots <= 2) {
        /* exact: a later dominator d of the lowest uncovered vertex
           covers unc, or with two slots, d and a later dominator of the
           lowest vertex that d leaves uncovered do */
        for (u64 d = closed[CTZ(unc)] & later; d != 0; d &= d - 1) {
            u64 rest = unc & ~closed[CTZ(d)];
            if (rest == 0)
                return 0;
            if (slots == 2)
                for (u64 e = closed[CTZ(rest)] & later; e != 0; e &= e - 1)
                    if ((rest & ~closed[CTZ(e)]) == 0)
                        return 0;
        }
        return 1;
    }
    /* packing bound: uncovered vertices that share no later dominator
       each need an added vertex of their own */
    int packed = 0;
    for (u64 rest = unc; rest != 0;) {
        u64 doms = closed[CTZ(rest)] & later;
        if (doms == 0 || ++packed > slots)
            return 1;
        for (; doms != 0; doms &= doms - 1)
            rest &= ~closed[CTZ(doms)];
    }

    /* budget bound over later candidates: the best `slots` gains must
       reach `need` */
    int hist[MAXN + 1], top = 0;
    for (int c = 0; c <= n; c++)  /* a gain is at most |unc| <= n */
        hist[c] = 0;
    for (u64 rest = later; rest != 0; rest &= rest - 1) {
        int c = POPCOUNT(closed[CTZ(rest)] & unc);
        hist[c]++;
        if (c > top)
            top = c;
    }
    for (int c = top; c > 0 && need > 0 && slots > 0; c--) {
        int take = hist[c] < slots ? hist[c] : slots;
        need -= take * c;
        slots -= take;
    }
    return need > 0;
}

/* Whether adding x to the set of `depth` chosen vertices, which covers
   `cover`, keeps it irredundant; if so, row depth + 1 of s->priv holds
   the private territories of the set plus x. */
static inline int
admit(Search *s, int depth, int x, u64 cover)
{
    u64 cx = s->closed[x], gain = cx & ~cover;
    if (gain == 0)
        return 0;  /* x would arrive with empty private territory */
    const u64 *privs = s->priv[depth];
    u64 *kept = s->priv[depth + 1];
    int j = 0;
    while (j < depth && (kept[j] = privs[j] & ~cx) != 0)
        j++;
    if (j < depth)
        return 0;  /* x would take a member's last private vertex */
    kept[depth] = gain;
    return 1;
}

/* One stage of the walk below the set `mask` of `depth` chosen vertices,
   which covers `cover`. Candidates ascend by id, so a branch may add
   only vertices above `last`, and sets arrive in lexicographic order.
   The bit of a root vertex in `later` is harmless, as its closed
   neighbourhood is covered and so dominates no uncovered vertex. 0, or
   -1 when a signal handler raised. */
static int
walk(Search *s, int depth, int last, u64 cover, u64 mask)
{
    if ((++s->nodes & POLL) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    if (cover == s->full) {
        u64 hits = (mask | s->wild) & s->todo;
        s->todo &= ~hits;
        for (; hits != 0; hits &= hits - 1) {
            s->size[CTZ(hits)] = depth;
            s->found[CTZ(hits)] = mask;
        }
        return 0;
    }
    int next = last + 1;  /* later: the vertices a branch may still add */
    u64 later = next < s->n ? s->full >> next << next : 0;
    if (((mask | later | s->wild) & s->todo) == 0
        || pruned(s->closed, s->n, s->full & ~cover, s->k - depth, later))
        return 0;
    for (int x = last + 1; x < s->n && s->todo != 0; x++) {
        if (!admit(s, depth, x, cover))
            continue;
        if (walk(s, depth + 1, x, cover | s->closed[x], mask | 1ULL << x) < 0)
            return -1;
    }
    return 0;
}

/* Reads the graph and seeds the walk: for v >= 0 the root {v} with
   only v open, for v < 0 the root ∅ with every vertex open. 0, or -1
   with an exception set. */
static int
seed(Search *s, PyObject *closed, int v, u64 wild)
{
    s->n = read_closed(closed, s->closed, MAXN, "compiled kernel");
    if (s->n < 0)
        return -1;
    if (v >= s->n) {
        PyErr_Format(PyExc_IndexError, "vertex %d out of range for %d vertices", v, s->n);
        return -1;
    }
    s->full = s->n == 64 ? ~0ULL : (1ULL << s->n) - 1;
    s->nodes = 0;
    s->root = v < 0 ? 0 : 1ULL << v;
    s->priv[1][0] = s->cover = v < 0 ? 0 : s->closed[v];
    s->todo = v < 0 ? s->full : s->root;
    s->wild = wild;
    return 0;
}

/* Stages k = max(k_lo, 1) .. k_hi of the walk, until no vertex is open.
   0, or -1 when a signal handler raised. */
static int
stages(Search *s, int k_lo, int k_hi)
{
    for (s->k = k_lo < 1 ? 1 : k_lo; s->k <= k_hi && s->todo != 0; s->k++) {
        if (walk(s, POPCOUNT(s->root), -1, s->cover, s->root) < 0)
            return -1;
        if (s->k >= s->n)
            break;  /* every stage above n walks the same tree as stage n */
    }
    return 0;
}

/* (size[u], found[u]), or None when no set served u. */
static PyObject *
served(const Search *s, int u)
{
    if (s->todo >> u & 1)
        Py_RETURN_NONE;
    return Py_BuildValue("(iK)", s->size[u], s->found[u]);
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

/* Vectorcall with hand-parsed arguments: the per-vertex degree queries
   (domination_degree_witness, mds_containing_greedy) make one call each,
   and most calls end in the first stage. */
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
    /* for v < 0, the first set reached serves every vertex */
    if (seed(&s, args[0], v, v < 0 ? ~0ULL : 0) < 0 || stages(&s, k_lo, k_hi) < 0)
        return NULL;
    return served(&s, v < 0 ? 0 : v);
}

/* solve_dd_all(closed, k_lo): stages k_lo .. n from the root ∅. */
static PyObject *
solve_dd_all(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int k_lo;
    Search s;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "solve_dd_all expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    /* a set serves its own members */
    if (as_int(args[1], &k_lo) < 0 || seed(&s, args[0], -1, 0) < 0 || stages(&s, k_lo, s.n) < 0)
        return NULL;
    PyObject *out = PyList_New(s.n);
    for (int u = 0; out != NULL && u < s.n; u++) {
        PyObject *hit = served(&s, u);
        if (hit == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, u, hit);
    }
    return out;
}

/* A walk of irredundant sets (see the kernel contract in _pykern): a
   set is extended only by vertices above its highest member that keep
   every member's private territory nonempty. priv[d] holds, for a set
   of d members, each member's private territory; each depth has its own
   row, as in Search. reach[x] is what closed[x..n) dominate together.
   scan_ir also keeps square[], the closed neighbourhoods of G². */
typedef struct {
    int n, lo, stop, upper_gamma, upper_ir;
    u64 full, nodes;
    u64 closed[MAXSCAN], reach[MAXSCAN + 1], square[MAXSCAN];
    u64 priv[MAXSCAN + 1][MAXSCAN];
    u64 *found;            /* scan_minimal_ds: the sets found so far */
    size_t count, room;
} Walk;

static int
walk_init(Walk *w, PyObject *closed)
{
    w->n = read_closed(closed, w->closed, MAXSCAN, "irredundant-set walk");
    if (w->n < 0)
        return -1;
    w->full = (1ULL << w->n) - 1;
    w->nodes = 0;
    w->reach[w->n] = 0;
    for (int x = w->n - 1; x >= 0; x--)
        w->reach[x] = w->reach[x + 1] | w->closed[x];
    w->upper_gamma = w->upper_ir = 0;
    w->found = NULL;
    w->count = w->room = 0;
    return 0;
}

/* Whether adding a vertex with closed neighbourhood cx to the set of
   `depth` members with private territories privs[] leaves it
   irredundant; the new member's territory is cx & unc. */
static inline int
extends(const u64 *privs, int depth, u64 cx, u64 unc)
{
    if ((cx & unc) == 0)
        return 0;
    for (int j = 0; j < depth; j++)
        if ((privs[j] & ~cx) == 0)
            return 0;
    return 1;
}

/* Row depth + 1 of w->priv for the set plus x. */
static inline void
keep(Walk *w, int depth, int x, u64 unc)
{
    const u64 *privs = w->priv[depth];
    u64 *kept = w->priv[depth + 1], cx = w->closed[x];
    for (int j = 0; j < depth; j++)
        kept[j] = privs[j] & ~cx;
    kept[depth] = cx & unc;
}

/* -1 when a signal handler raised; polls every 2^16 nodes. */
static inline int
walk_poll(Walk *w)
{
    return (++w->nodes & POLL) == 0 ? PyErr_CheckSignals() : 0;
}

/* 0, or -1 with an exception set. */
static int
mds_walk(Walk *w, int depth, int start, u64 cover, u64 mask)
{
    if (walk_poll(w) < 0)
        return -1;
    if (cover == w->full) {  /* not extended: no added vertex has a private vertex */
        if (w->count == w->room) {
            w->room = w->room ? 2 * w->room : 1024;
            u64 *grown = realloc(w->found, w->room * sizeof(u64));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            w->found = grown;
        }
        w->found[w->count++] = mask;
        return 0;
    }
    u64 unc = w->full & ~cover;
    if (unc & ~w->reach[start])
        return 0;  /* no later vertex dominates some uncovered vertex */
    for (int x = start; x < w->n; x++) {
        if (!extends(w->priv[depth], depth, w->closed[x], unc))
            continue;
        keep(w, depth, x, unc);
        if (mds_walk(w, depth + 1, x + 1, cover | w->closed[x], mask | 1ULL << x) < 0)
            return -1;
    }
    return 0;
}

/* by (cardinality, mask) */
static int
by_size(const void *a, const void *b)
{
    u64 x = *(const u64 *)a, y = *(const u64 *)b;
    int cx = POPCOUNT(x), cy = POPCOUNT(y);
    if (cx != cy)
        return cx < cy ? -1 : 1;
    return x < y ? -1 : x > y;
}

static PyObject *
scan_minimal_ds(PyObject *Py_UNUSED(self), PyObject *closed)
{
    Walk w;
    if (walk_init(&w, closed) < 0)
        return NULL;
    PyObject *out = NULL;
    if (mds_walk(&w, 0, 0, 0, 0) < 0)
        goto done;
    if (w.count > 1)
        qsort(w.found, w.count, sizeof(u64), by_size);
    out = PyList_New((Py_ssize_t)w.count);
    for (size_t i = 0; out != NULL && i < w.count; i++) {
        PyObject *mask = PyLong_FromUnsignedLongLong(w.found[i]);
        if (mask == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)i, mask);
    }
done:
    free(w.found);
    return out;
}

/* 0, or -1 with an exception set. Tracks Γ and IR, and stops branches
   that can improve neither, as in _pykern. */
static int
irr_walk(Walk *w, int depth, int start, u64 cover)
{
    if (walk_poll(w) < 0)
        return -1;
    int c = depth;
    if (c > w->upper_ir)
        w->upper_ir = c;
    if (cover == w->full) {
        /* minimal dominating */
        if (c > w->upper_gamma)
            w->upper_gamma = c;
        return 0;
    }
    /* members added below take disjoint private territories from the
       uncovered vertices that later ones reach */
    u64 unc = w->full & ~cover, r = unc & w->reach[start];
    int room = c + POPCOUNT(r);
    if (room <= w->upper_ir && (r != unc || room <= w->upper_gamma))
        return 0;
    const u64 *privs = w->priv[depth];
    int kids[MAXSCAN], nkids = 0;
    for (int x = start; x < w->n; x++)
        if (extends(privs, depth, w->closed[x], unc))
            kids[nkids++] = x;
    /* a descendant of the child by kids[i] adds only kids[i..), so it has
       at most `room` members, and it dominates only if they reach unc */
    for (int i = 0; i < nkids; i++) {
        int x = kids[i];
        room = c + nkids - i;
        if (room <= w->upper_ir && (room <= w->upper_gamma || (unc & ~w->reach[x]) != 0))
            break;
        keep(w, depth, x, unc);
        if (irr_walk(w, depth + 1, x + 1, cover | w->closed[x]) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
scan_irredundance(PyObject *Py_UNUSED(self), PyObject *closed)
{
    Walk w;
    if (walk_init(&w, closed) < 0 || irr_walk(&w, 0, 0, 0) < 0)
        return NULL;
    return Py_BuildValue("(ii)", w.upper_gamma, w.upper_ir);
}

/* 0, or -1 with an exception set. Looks for a maximal irredundant set
   smaller than w->lo, as in _pykern: the set of `depth` members covers
   `cover` in G and `far` in G², and may add vertices from `start` up. A
   maximal irredundant set dominates G², so the branch is pruned when its
   later vertices cannot cover the rest of G² within lo - 1 members. */
static int
ir_walk(Walk *w, int depth, int start, u64 cover, u64 far)
{
    if (walk_poll(w) < 0)
        return -1;
    int slots = w->lo - 1 - depth;
    u64 rest = w->full & ~far, later = w->full >> start << start;
    if (w->lo <= w->stop || slots < 0
        || (rest != 0 && pruned(w->square, w->n, rest, slots, later)))
        return 0;
    u64 unc = w->full & ~cover;
    const u64 *privs = w->priv[depth];
    /* vertices below `end` are tested for extending a set that no later
       vertex extends: all of them when no child stays below lo */
    int maximal = 1, end = w->n;
    if (slots > 0) {
        end = start;
        for (int x = start; x < w->n && w->lo > w->stop && w->lo - 1 - depth > 0; x++) {
            if (!extends(privs, depth, w->closed[x], unc))
                continue;
            maximal = 0;
            keep(w, depth, x, unc);
            if (ir_walk(w, depth + 1, x + 1, cover | w->closed[x], far | w->square[x]) < 0)
                return -1;
        }
    }
    if (maximal) {
        int x = 0;
        while (x < end && !extends(privs, depth, w->closed[x], unc))
            x++;
        if (x == end)
            w->lo = depth;
    }
    return 0;
}

/* scan_ir(closed, gamma): ir, from lo = gamma down. */
static PyObject *
scan_ir(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Walk w;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "scan_ir expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    if (walk_init(&w, args[0]) < 0 || as_int(args[1], &w.lo) < 0)
        return NULL;
    if (w.lo < 1 || w.lo > w.n) {
        PyErr_Format(PyExc_ValueError, "gamma must lie in 1..%d, got %d", w.n, w.lo);
        return NULL;
    }
    w.stop = (w.lo + 2) / 2;  /* ir >= ceil((gamma + 1) / 2), as gamma <= 2 ir - 1 */
    for (int v = 0; v < w.n; v++) {
        w.square[v] = 0;
        for (u64 rest = w.closed[v]; rest != 0; rest &= rest - 1)
            w.square[v] |= w.closed[CTZ(rest)];
    }
    if (ir_walk(&w, 0, 0, 0, 0) < 0)
        return NULL;
    return PyLong_FromLong(w.lo);
}

static PyMethodDef methods[] = {
    {"solve_dd", (PyCFunction)(void (*)(void))solve_dd, METH_FASTCALL,
     "solve_dd(closed, v, k_lo, k_hi) -> (size, mask) or None"},
    {"solve_dd_all", (PyCFunction)(void (*)(void))solve_dd_all, METH_FASTCALL,
     "solve_dd_all(closed, k_lo) -> [(size, mask) or None for each vertex]"},
    {"scan_minimal_ds", scan_minimal_ds, METH_O,
     "scan_minimal_ds(closed) -> minimal dominating sets sorted by (size, mask)"},
    {"scan_irredundance", scan_irredundance, METH_O,
     "scan_irredundance(closed) -> (upper gamma, IR)"},
    {"scan_ir", (PyCFunction)(void (*)(void))scan_ir, METH_FASTCALL,
     "scan_ir(closed, gamma) -> ir, given gamma, the domination number"},
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
