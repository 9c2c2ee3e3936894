/* Exact multi-source A* connection search of the PathFinder router.
 *
 * One kernel serves untimed and timed routing; the two differ only in
 * how an edge is priced.  It reads the router's arrays in place:
 * the split CSR graph (per node: non-sink edges, then sink edges),
 * the numpy price vectors, a static-bit mask, the node coordinates
 * and the per-node delays.
 *
 * Bit-identity with the pure-Python reference rests on three facts:
 *   - the heap key (f, g, node) is a total order over distinct
 *     entries and a push needs a strict ng < dist, so any correct
 *     binary heap pops the same sequence as Python's heapq;
 *   - every float expression keeps the reference grouping, and the
 *     library is compiled with -ffp-contract=off and no fast-math, so
 *     no multiply-add is fused;
 *   - FLT_EVAL_METHOD must be 0 (no extended-precision temporaries),
 *     which the check below enforces at build time.
 *
 * Errors never crash: an out-of-range node id, a full heap or a timed
 * search without delays returns a negative code that the Python
 * wrapper raises as an exception.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double arithmetic must not use extended precision"
#endif

#define ABI_VERSION 1

#define ERR_UNREACHABLE (-1)
#define ERR_NODE (-2)
#define ERR_HEAP (-3)
#define ERR_PATH (-4)
#define ERR_DELAY (-5)

typedef struct {
    double f, g;
    int64_t node;
} entry_t;

/* Per-router state: the graph views are fixed, the scratch arrays are
 * reused by every search (stamp[v] == epoch marks dist[v] as valid in
 * the current search), and the counters describe the last search. */
typedef struct {
    int64_t n_nodes, n_bits;
    const int64_t *row_ptr, *sink_ptr, *edge_dst, *edge_bit;
    const int64_t *node_x, *node_y;
    const double *nd, *nds;
    double *dist;
    int64_t *stamp, *parent_node, *parent_bit;
    entry_t *heap;
    int64_t heap_cap;
    int64_t *path;
    int64_t path_cap;
    int64_t epoch, pops, pushes, settled;
} workspace_t;

/* Python tuple order over (f, g, node). */
static int before(const entry_t *a, const entry_t *b)
{
    if (a->f != b->f)
        return a->f < b->f;
    if (a->g != b->g)
        return a->g < b->g;
    return a->node < b->node;
}

static void sift_up(entry_t *heap, int64_t i)
{
    entry_t item = heap[i];
    while (i > 0) {
        int64_t up = (i - 1) >> 1;
        if (!before(&item, &heap[up]))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = item;
}

static void sift_down(entry_t *heap, int64_t size)
{
    entry_t item = heap[0];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &item))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = item;
}

int repro_astar_abi(void)
{
    return ABI_VERSION;
}

/* Search from every node of `starts` to `target`.
 *
 * Untimed (timed == 0): an edge into v costs p = pn[v], or pnA[v] when
 * its bit is set in `mask`.  Timed: it costs
 * inv_crit * p + crit * d with d = nd[v], or nds[v] for an edge that
 * carries a bit.  The heuristic is `fac * manhattan(v, target)` when
 * `hc` is NULL, `hc[v]` when only `hc` is given, and
 * `lk_a * hc[v] + crit * hd[v]` with both lookahead vectors.
 *
 * Returns the number of path edges written to ws->path as
 * (from, to, bit) triples, ERR_UNREACHABLE, or another error code. */
int64_t repro_astar(workspace_t *ws, const int64_t *starts, int64_t n_starts,
                    int64_t target, const double *pn, const double *pnA,
                    const uint8_t *mask, int timed, double crit, double fac,
                    const double *hc, const double *hd, double lk_a)
{
    const int64_t n = ws->n_nodes;
    const int64_t *row_ptr = ws->row_ptr, *sink_ptr = ws->sink_ptr;
    const int64_t *edge_dst = ws->edge_dst, *edge_bit = ws->edge_bit;
    const int64_t *node_x = ws->node_x, *node_y = ws->node_y;
    const double *nd = ws->nd, *nds = ws->nds;
    double *dist = ws->dist;
    int64_t *stamp = ws->stamp;
    int64_t *parent_node = ws->parent_node, *parent_bit = ws->parent_bit;
    entry_t *heap = ws->heap;
    const double inv_crit = 1.0 - crit;
    int64_t size = 0, pops = 0, pushes = 0, settled = 0;
    int64_t epoch, tx, ty, i, node, m;
    int found = 0;

    ws->pops = ws->pushes = ws->settled = 0;
    if (target < 0 || target >= n)
        return ERR_NODE;
    if (timed && (nd == NULL || nds == NULL))
        return ERR_DELAY;
    epoch = ++ws->epoch;
    tx = node_x[target];
    ty = node_y[target];

#define HEURISTIC(v, out)                                                  \
    do {                                                                   \
        if (hc == NULL) {                                                  \
            int64_t dx_ = node_x[v] - tx, dy_ = node_y[v] - ty;            \
            if (dx_ < 0)                                                   \
                dx_ = -dx_;                                                \
            if (dy_ < 0)                                                   \
                dy_ = -dy_;                                                \
            (out) = fac * (double)(dx_ + dy_);                             \
        } else if (hd == NULL) {                                           \
            (out) = hc[v];                                                 \
        } else {                                                           \
            (out) = lk_a * hc[v] + crit * hd[v];                           \
        }                                                                  \
    } while (0)

    for (i = 0; i < n_starts; i++) {
        int64_t s = starts[i];
        double h;
        if (s < 0 || s >= n)
            return ERR_NODE;
        if (size >= ws->heap_cap)
            return ERR_HEAP;
        dist[s] = 0.0;
        stamp[s] = epoch;
        HEURISTIC(s, h);
        heap[size].f = h;
        heap[size].g = 0.0;
        heap[size].node = s;
        sift_up(heap, size++);
        if (s == target)
            found = 1;
    }
    pushes = size;

    while (size > 0) {
        entry_t top = heap[0];
        int64_t e, end, sinks;
        double g;
        heap[0] = heap[--size];
        if (size > 0)
            sift_down(heap, size);
        pops++;
        node = top.node;
        if (dist[node] == -INFINITY)
            continue;
        dist[node] = -INFINITY;
        settled++;
        if (node == target) {
            found = 1;
            break;
        }
        g = top.g;
        end = row_ptr[node + 1];
        sinks = sink_ptr[node];
        for (e = row_ptr[node]; e < end; e++) {
            int64_t v = edge_dst[e], bit = edge_bit[e];
            double p, ng, known, h;
            if (v < 0 || v >= n || bit >= ws->n_bits)
                return ERR_NODE;
            if (e >= sinks && v != target)
                continue;
            p = (bit >= 0 && mask != NULL && mask[bit]) ? pnA[v] : pn[v];
            if (timed)
                ng = g + (inv_crit * p + crit * (bit < 0 ? nd[v] : nds[v]));
            else
                ng = g + p;
            known = stamp[v] == epoch ? dist[v] : INFINITY;
            if (!(ng < known))
                continue;
            if (size >= ws->heap_cap)
                return ERR_HEAP;
            dist[v] = ng;
            stamp[v] = epoch;
            parent_node[v] = node;
            parent_bit[v] = bit;
            HEURISTIC(v, h);
            heap[size].f = ng + h;
            heap[size].g = ng;
            heap[size].node = v;
            sift_up(heap, size++);
            pushes++;
        }
    }
#undef HEURISTIC
    ws->pops = pops;
    ws->pushes = pushes;
    ws->settled = settled;
    if (!found)
        return ERR_UNREACHABLE;

    /* Walk the parents back to the first start node, then reverse. */
    m = 0;
    node = target;
    for (;;) {
        int is_start = 0;
        for (i = 0; i < n_starts; i++) {
            if (starts[i] == node) {
                is_start = 1;
                break;
            }
        }
        if (is_start)
            break;
        if (m >= ws->path_cap)
            return ERR_PATH;
        ws->path[3 * m] = parent_node[node];
        ws->path[3 * m + 1] = node;
        ws->path[3 * m + 2] = parent_bit[node];
        node = parent_node[node];
        m++;
    }
    for (i = 0; i < m / 2; i++) {
        int64_t j = m - 1 - i, k;
        for (k = 0; k < 3; k++) {
            int64_t tmp = ws->path[3 * i + k];
            ws->path[3 * i + k] = ws->path[3 * j + k];
            ws->path[3 * j + k] = tmp;
        }
    }
    return m;
}
