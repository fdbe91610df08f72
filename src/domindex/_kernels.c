/* Compiled search kernels.

   Twin of _pykern (see its docstring for the kernel contract), step for
   step: same candidate order, same tests in the same order, same results
   and witnesses. Each call keeps one State. One stage walk serves both
   searches, from three seeds: solve_dd(v) at the root {v}, solve_dd(-1)
   and solve_dd_all at the root ∅. Three walks of irredundant sets give
   the minimal dominating sets in the order the walk reaches them
   (scan_minimal_ds; the engine sorts them), Γ and IR
   (scan_irredundance), and ir (scan_ir). scan_ir starts from γ, cuts a
   child whose sets cannot dominate G², and stops at a bound from γ and
   from the maximum degree. It also cuts a child that may add no vertex
   unless the G² neighbourhoods of its members that have a neighbour in
   it cover what it leaves undominated, by the annihilator lemma: in a
   maximal irredundant set S with |S| < γ, an undominated u leaves some
   member x with PN(x,S) ⊆ N[u]; x is not in PN(x,S), or it would
   dominate u, so x has a neighbour in S, and u ∈ N[p] ⊆ N²[x] for a
   p ∈ PN(x,S) (see the kernel contract in _pykern). The stage walk and
   scan_ir test each child before they enter it, with one bound helper,
   pruned, on G and on G²; last_nodes() gives the number of sets that
   the last of these walks, or of scan_irredundance's, entered.
   Restricted to graphs with at most 64 vertices, so every mask fits one
   machine word. Long searches and walks poll for signals, so Ctrl-C
   stops them.

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
#define TOP(x) (63 - __builtin_clzll(x))  /* the highest set bit */

/* The state of one kernel call, whichever walk it runs. reach[x] is what
   closed[x..n) dominate together (for scan_ir, square[x..n)). priv[d]
   holds, for a set of d chosen vertices, the private territory of each
   of them in the order chosen; each depth has its own row, so
   backtracking restores nothing. nodes counts the entries to a walk.
     - The stage walk: stage k; todo, the open vertices; wild, the open
       vertices that every dominating set serves, member or not. A
       dominating set that serves u sets found[u].
     - scan_minimal_ds: the sets found so far, sets[0..count).
     - scan_irredundance: Γ and IR so far.
     - scan_ir: lo, the size of the smallest maximal irredundant set found
       so far; stop, the size at which it ends; square[], the closed
       neighbourhoods of G². */
typedef struct {
    int n, k, lo, stop, upper_gamma, upper_ir;
    u64 full, nodes, todo, wild;
    u64 closed[MAXN], reach[MAXN + 1], square[MAXN];
    u64 found[MAXN];
    u64 priv[MAXN + 1][MAXN];
    u64 *sets;
    size_t count, room;
} State;

static u64 entered;  /* last_nodes(): s->nodes of the last stage walk, Γ/IR walk or scan_ir that returned */

/* Reads the sequence `closed` of int masks into s->closed and sets up
   the rest of the state. 0, or -1 with an exception set when n is
   outside 1..maxn or a mask is not a non-negative int below 2^64. */
static int
init(State *s, PyObject *closed, int maxn, const char *what)
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
        s->closed[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (s->closed[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    s->n = (int)n;
    s->full = n == 64 ? ~0ULL : (1ULL << n) - 1;
    s->nodes = 0;
    s->reach[n] = 0;
    for (int x = s->n - 1; x >= 0; x--)
        s->reach[x] = s->reach[x + 1] | s->closed[x];
    s->upper_gamma = s->upper_ir = 0;
    s->sets = NULL;
    s->count = s->room = 0;
    return 0;
}

/* Counts one node: -1 when a signal handler raised; polls every 2^16. */
static inline int
poll(State *s)
{
    return (++s->nodes & POLL) == 0 ? PyErr_CheckSignals() : 0;
}

/* _pykern._cut, under the same preconditions: whether the bounds cut a
   set that leaves `unc` uncovered in the graph with closed neighbourhoods
   closed[], and may add `slots` more vertices from id `start` up. Exact
   for at most two slots: a later dominator d of the lowest vertex of unc
   covers it, or with two slots, d and a later vertex that covers what d
   leaves; only a vertex that dominates both the lowest and the highest
   vertex of a mask covers it, so only those are tried for the last slot.
   Else the packing bound. */
static inline __attribute__((always_inline)) int
pruned(const u64 *closed, int start, u64 unc, int slots)
{
    u64 later = ~0ULL << start;  /* ids start and up; start < 64, as one of them dominates unc */
    if (slots <= 2) {
        if (slots < 1)
            return 1;
        u64 d = closed[CTZ(unc)] & later;
        if (slots == 1)
            d &= closed[TOP(unc)];
        for (; d != 0; d &= d - 1) {
            u64 rest = unc & ~closed[CTZ(d)];
            if (rest == 0)
                return 0;
            if (slots == 2)
                for (u64 e = closed[CTZ(rest)] & closed[TOP(rest)] & later; e != 0; e &= e - 1)
                    if ((rest & ~closed[CTZ(e)]) == 0)
                        return 0;
        }
        return 1;
    }
    /* packing bound: uncovered vertices that share no later dominator
       each need an added vertex of their own */
    int packed = 0;
    for (u64 rest = unc; rest != 0;) {
        if (++packed > slots)
            return 1;
        for (u64 doms = closed[CTZ(rest)] & later; doms != 0; doms &= doms - 1)
            rest &= ~closed[CTZ(doms)];
    }
    return 0;
}

/* Whether adding a vertex with closed neighbourhood cx to the set of
   `depth` members with private territories privs[], which leaves `unc`
   uncovered, keeps it irredundant: the new member's territory cx & unc
   is not empty, and no member loses its last private vertex. */
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

/* Row depth + 1 of s->priv for the set plus x. */
static inline void
keep(State *s, int depth, int x, u64 unc)
{
    const u64 *privs = s->priv[depth];
    u64 *kept = s->priv[depth + 1], cx = s->closed[x];
    for (int j = 0; j < depth; j++)
        kept[j] = privs[j] & ~cx;
    kept[depth] = cx & unc;
}

/* Records the dominating set `mask` for the open vertices it serves,
   and closes them. */
static void
serve(State *s, u64 mask)
{
    u64 hits = (mask | s->wild) & s->todo;
    s->todo &= ~hits;
    for (; hits != 0; hits &= hits - 1)
        s->found[CTZ(hits)] = mask;
}

/* One stage of the walk below the set `mask` of `depth` chosen vertices,
   which leaves `unc` uncovered and passed the bounds. Candidates ascend
   by id from `start`, so sets arrive in lexicographic order; each child
   is tested before it is entered. 0, or -1 when a signal handler raised. */
static int
walk(State *s, int depth, int start, u64 unc, u64 mask)
{
    if (poll(s) < 0)
        return -1;
    int slots = s->k - depth - 1;  /* left to a child */
    u64 held = (mask | s->wild) & s->todo;  /* open vertices that every set below serves */
    for (int x = start; x < s->n; x++) {
        u64 cx = s->closed[x], rest = unc & ~cx;
        if ((cx & unc) == 0)
            continue;  /* x would gain no private vertex, as a root vertex never does */
        /* no slot left, an uncovered vertex with no later dominator, or
           no set below the child that serves an open vertex */
        if (rest != 0 && (slots == 0 || (rest & ~s->reach[x + 1]) != 0
                          || (held == 0 && (s->todo >> x) == 0)))
            continue;
        if (!extends(s->priv[depth], depth, cx, unc))
            continue;  /* x would take a member's last private vertex */
        if (rest == 0)
            serve(s, mask | 1ULL << x);
        else if (POPCOUNT(rest) <= slots || !pruned(s->closed, x + 1, rest, slots)) {
            keep(s, depth, x, unc);
            if (walk(s, depth + 1, x + 1, rest, mask | 1ULL << x) < 0)
                return -1;
        }
        if (s->todo == 0)
            return 0;
        held &= s->todo;
    }
    return 0;
}

/* Stages k = max(k_lo, 1) .. k_hi of the walk from the root {v} with
   only v open, or for v < 0 from the root ∅ with every vertex open,
   until no vertex is open. A dominating set serves its open members and
   the open vertices in `wild`. Each stage tests the root once. 0, or -1
   with an exception set. */
static int
stages(State *s, int v, u64 wild, int k_lo, int k_hi)
{
    if (v >= s->n) {
        PyErr_Format(PyExc_IndexError, "vertex %d out of range for %d vertices", v, s->n);
        return -1;
    }
    int depth = v >= 0;
    u64 mask = v < 0 ? 0 : 1ULL << v, unc = v < 0 ? s->full : s->full & ~s->closed[v];
    s->priv[1][0] = v < 0 ? 0 : s->closed[v];
    s->todo = v < 0 ? s->full : mask;
    s->wild = wild;
    for (s->k = k_lo < 1 ? 1 : k_lo; s->k <= k_hi && s->todo != 0; s->k++) {
        int slots = s->k - depth;
        if (unc == 0)
            serve(s, mask);  /* v dominates every vertex */
        else if ((POPCOUNT(unc) <= slots || !pruned(s->closed, 0, unc, slots))
                 && walk(s, depth, 0, unc, mask) < 0)
            return -1;
        if (s->k >= s->n)
            break;  /* every stage above n walks the same tree as stage n */
    }
    return 0;
}

/* (size, member_mask) of the set that served u, or None when none did. */
static PyObject *
served(const State *s, int u)
{
    if (s->todo >> u & 1)
        Py_RETURN_NONE;
    return Py_BuildValue("(iK)", POPCOUNT(s->found[u]), s->found[u]);
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
    State s;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "solve_dd expected 4 arguments, got %zd", nargs);
        return NULL;
    }
    /* for v < 0, the first set reached serves every vertex */
    if (as_int(args[1], &v) < 0 || as_int(args[2], &k_lo) < 0 || as_int(args[3], &k_hi) < 0
        || init(&s, args[0], MAXN, "compiled kernel") < 0
        || stages(&s, v, v < 0 ? ~0ULL : 0, k_lo, k_hi) < 0)
        return NULL;
    entered = s.nodes;
    return served(&s, v < 0 ? 0 : v);
}

/* solve_dd_all(closed, k_lo): stages k_lo .. n from the root ∅. */
static PyObject *
solve_dd_all(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int k_lo;
    State s;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "solve_dd_all expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    /* a set serves its own members */
    if (as_int(args[1], &k_lo) < 0 || init(&s, args[0], MAXN, "compiled kernel") < 0
        || stages(&s, -1, 0, k_lo, s.n) < 0)
        return NULL;
    entered = s.nodes;
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

/* The walks of irredundant sets (see the kernel contract in _pykern): a
   set is extended only by vertices above its highest member that keep
   every member's private territory nonempty. 0, or -1 with an exception
   set. */
static int
mds_walk(State *s, int depth, int start, u64 cover, u64 mask)
{
    if (poll(s) < 0)
        return -1;
    if (cover == s->full) {  /* not extended: no added vertex has a private vertex */
        if (s->count == s->room) {
            s->room = s->room ? 2 * s->room : 1024;
            u64 *grown = realloc(s->sets, s->room * sizeof(u64));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            s->sets = grown;
        }
        s->sets[s->count++] = mask;
        return 0;
    }
    u64 unc = s->full & ~cover;
    if (unc & ~s->reach[start])
        return 0;  /* no later vertex dominates some uncovered vertex */
    for (int x = start; x < s->n; x++) {
        if (!extends(s->priv[depth], depth, s->closed[x], unc))
            continue;
        keep(s, depth, x, unc);
        if (mds_walk(s, depth + 1, x + 1, cover | s->closed[x], mask | 1ULL << x) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
scan_minimal_ds(PyObject *Py_UNUSED(self), PyObject *closed)
{
    State s;
    if (init(&s, closed, MAXSCAN, "irredundant-set walk") < 0)
        return NULL;
    PyObject *out = NULL;
    if (mds_walk(&s, 0, 0, 0, 0) < 0)
        goto done;
    out = PyList_New((Py_ssize_t)s.count);
    for (size_t i = 0; out != NULL && i < s.count; i++) {
        PyObject *mask = PyLong_FromUnsignedLongLong(s.sets[i]);
        if (mask == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)i, mask);
    }
done:
    free(s.sets);
    return out;
}

/* 0, or -1 with an exception set. Tracks Γ and IR, and stops branches
   that can improve neither, as in _pykern. */
static int
irr_walk(State *s, int depth, int start, u64 cover)
{
    if (poll(s) < 0)
        return -1;
    int c = depth;
    if (c > s->upper_ir)
        s->upper_ir = c;
    if (cover == s->full) {  /* minimal dominating */
        if (c > s->upper_gamma)
            s->upper_gamma = c;
        return 0;
    }
    /* members added below take disjoint private territories from the
       uncovered vertices that later ones reach */
    u64 unc = s->full & ~cover, r = unc & s->reach[start];
    int room = c + POPCOUNT(r);
    if (room <= s->upper_ir && (r != unc || room <= s->upper_gamma))
        return 0;
    int kids[MAXN], nkids = 0;
    for (int x = start; x < s->n; x++)
        if (extends(s->priv[depth], depth, s->closed[x], unc))
            kids[nkids++] = x;
    /* a descendant of the child by kids[i] adds only kids[i..), so it has
       at most `room` members, and it dominates only if they reach unc */
    for (int i = 0; i < nkids; i++) {
        int x = kids[i];
        room = c + nkids - i;
        if (room <= s->upper_ir && (room <= s->upper_gamma || (unc & ~s->reach[x]) != 0))
            break;
        keep(s, depth, x, unc);
        if (irr_walk(s, depth + 1, x + 1, cover | s->closed[x]) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
scan_irredundance(PyObject *Py_UNUSED(self), PyObject *closed)
{
    State s;
    if (init(&s, closed, MAXSCAN, "irredundant-set walk") < 0 || irr_walk(&s, 0, 0, 0) < 0)
        return NULL;
    entered = s.nodes;
    return Py_BuildValue("(ii)", s.upper_gamma, s.upper_ir);
}

/* 0, or -1 with an exception set. Looks for a maximal irredundant set
   smaller than s->lo, as in _pykern: the set of `depth` members, which
   passed the bounds, covers `cover` in G and `far` in G², and may add
   vertices from `start` up; `alone` holds its members with no neighbour
   in it, and `near` the G² cover of the others. A maximal irredundant set
   dominates G², so a child is cut when its later vertices cannot cover
   the rest of G² within lo - 1 members. A child that can add no vertex
   has lo - 1 < γ members, so it is maximal only if near covers what it
   leaves undominated, and is cut otherwise. That is the annihilator
   lemma: if S is maximal irredundant and u is undominated, u is its own
   private vertex in S+u, so some member x has PN(x,S) ⊆ N[u]; x has a
   neighbour in S, or x ∈ PN(x,S) would dominate u; so u ∈ N[p] ⊆ N²[x]
   for a p ∈ PN(x,S). */
static int
ir_walk(State *s, int depth, int start, u64 cover, u64 far, u64 alone, u64 near)
{
    if (poll(s) < 0)
        return -1;
    u64 unc = s->full & ~cover;
    int slots = s->lo - 2 - depth;  /* left to a child, which stays below lo */
    int end = s->n;  /* when no child stays below lo, all vertices are tested */
    if (slots >= 0) {
        int maximal = 1;
        for (int x = start; x < s->n; x++) {
            u64 cx = s->closed[x];
            if (!extends(s->priv[depth], depth, cx, unc))
                continue;
            maximal = 0;
            /* no slot left, a vertex far from the child with no later
               G²-dominator, or the bounds of the stage walk in G² */
            u64 rest = s->full & ~(far | s->square[x]);
            if (rest != 0 && (slots == 0 || (rest & ~s->reach[x + 1]) != 0
                              || (POPCOUNT(rest) > slots
                                  && pruned(s->square, x + 1, rest, slots))))
                continue;
            /* the child's members with no neighbour in it, and the G²
               cover of the others: a member next to x is no longer alone */
            u64 kid_alone = alone | 1ULL << x, kid_near = near;
            if (cover >> x & 1) {
                kid_alone = alone & ~cx;
                kid_near |= s->square[x];
                for (u64 woken = alone & cx; woken != 0; woken &= woken - 1)
                    kid_near |= s->square[CTZ(woken)];
            }
            if (slots == 0 && (unc & ~cx & ~kid_near) != 0)
                continue;  /* the annihilator cut */
            keep(s, depth, x, unc);
            if (ir_walk(s, depth + 1, x + 1, cover | cx, far | s->square[x], kid_alone, kid_near) < 0)
                return -1;
            slots = s->lo - 2 - depth;
            if (s->lo <= s->stop || slots < 0)
                return 0;
        }
        if (!maximal)
            return 0;
        end = start;
    }
    /* maximal unless another vertex (a lower one, when no later vertex
       extends the set) keeps it irredundant */
    for (int x = 0; x < end; x++)
        if (extends(s->priv[depth], depth, s->closed[x], unc))
            return 0;
    s->lo = depth;
    return 0;
}

/* scan_ir(closed, gamma): ir, from lo = gamma down. */
static PyObject *
scan_ir(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    State s;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "scan_ir expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    if (init(&s, args[0], MAXSCAN, "irredundant-set walk") < 0 || as_int(args[1], &s.lo) < 0)
        return NULL;
    if (s.lo < 1 || s.lo > s.n) {
        PyErr_Format(PyExc_ValueError, "gamma must lie in 1..%d, got %d", s.n, s.lo);
        return NULL;
    }
    /* _pykern._ir_stop: ir >= ceil((gamma + 1) / 2), as gamma <= 2 ir - 1,
       and ir >= ceil(n / max(delta + 1, 2 delta - 1)), the contract's
       degree bound; delta is read only when the first leaves room below
       gamma */
    s.stop = (s.lo + 2) / 2;
    if (s.stop < s.lo) {
        int delta = 0;
        for (int v = 0; v < s.n; v++)
            if (POPCOUNT(s.closed[v]) - 1 > delta)
                delta = POPCOUNT(s.closed[v]) - 1;
        int per = delta > 2 ? 2 * delta - 1 : delta + 1, bound = (s.n + per - 1) / per;
        if (bound > s.stop)
            s.stop = bound;
    }
    if (s.lo > s.stop) {  /* else no set to enter, so no G² to build */
        for (int v = s.n - 1; v >= 0; v--) {  /* reach over G² */
            s.square[v] = 0;
            for (u64 rest = s.closed[v]; rest != 0; rest &= rest - 1)
                s.square[v] |= s.closed[CTZ(rest)];
            s.reach[v] = s.reach[v + 1] | s.square[v];
        }
        if (!pruned(s.square, 0, s.full, s.lo - 1) && ir_walk(&s, 0, 0, 0, 0, 0, 0) < 0)
            return NULL;
    }
    entered = s.nodes;
    return PyLong_FromLong(s.lo);
}

static PyObject *
last_nodes(PyObject *Py_UNUSED(self), PyObject *Py_UNUSED(args))
{
    return PyLong_FromUnsignedLongLong(entered);
}

static PyMethodDef methods[] = {
    {"solve_dd", (PyCFunction)(void (*)(void))solve_dd, METH_FASTCALL,
     "solve_dd(closed, v, k_lo, k_hi) -> (size, mask) or None"},
    {"solve_dd_all", (PyCFunction)(void (*)(void))solve_dd_all, METH_FASTCALL,
     "solve_dd_all(closed, k_lo) -> [(size, mask) or None for each vertex]"},
    {"last_nodes", last_nodes, METH_NOARGS,
     "last_nodes() -> sets entered by the last solve_dd, solve_dd_all, scan_irredundance or scan_ir walk"},
    {"scan_minimal_ds", scan_minimal_ds, METH_O,
     "scan_minimal_ds(closed) -> minimal dominating sets in walk order"},
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
