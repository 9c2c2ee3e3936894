/* Annealing move loop of the placers (propose, price, accept, commit).
 *
 * One kernel serves every placement problem: the single-circuit placer,
 * the combined placement of all modes (wire length or edge matching)
 * and TPlace, timed or not.  Timed and untimed moves differ only in
 * pricing.  The schedule (temperatures, range limit, exit test) and the
 * per-temperature criticality refresh stay in Python; this file runs
 * the moves of one temperature, or the all-accepted perturbation moves
 * that set the first one.
 *
 * The problem arrives flattened (see repro.place.annealkernel): cells
 * [0, n_blocks) sit on CLB sites, the others on pad sites; a site is a
 * global id (CLB sites, then pad sites, in the order the architecture
 * lists them); occupancy is one array per layer (the mode layers of the
 * combined placement, one layer otherwise; pads always use layer 0).
 *
 * The result is bit-identical to the Python problems' propose /
 * delta_cost / commit methods driven by repro.place.annealing.anneal:
 *   - random draws replay CPython's MT19937: random() takes two words,
 *     randrange(n) is getrandbits(n.bit_length()) with rejection;
 *   - affected nets are summed in the order Python visits them: sorted
 *     for the single placer, CPython 3.11 set iteration order over int
 *     keys for the combined placement and TPlace (emulated below);
 *     affected timing connections are visited in ascending index order,
 *     as PlacementTimingCost.conns_of sorts them;
 *   - sums are plain left-to-right double additions, a timed move costs
 *     (1 - lam) * dwl + (lam * tau) * dt, acceptance is
 *     delta <= 0 || u < exp(-delta / T), and the library is compiled
 *     with -ffp-contract=off and no fast-math.
 * The Python binding checks the MT stream, the set order, sum() and
 * exp() against the running interpreter when it loads the library.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double arithmetic must not use extended precision"
#endif

#define ABI_VERSION 1

/* The single placer picks blocks or pads by random() < n_blocks /
 * n_cells and sums affected nets sorted; the combined placement and
 * TPlace pick by randrange(n_cells) < n_blocks and sum in set order. */
#define STYLE_SINGLE 0
#define STYLE_MODES 1
#define COST_WIRE_LENGTH 0
#define COST_EDGE_MATCHING 1

#define ERR_SET (-2)
#define ERR_SCRATCH (-3)
#define ERR_INPUT (-4)
#define ERR_COUNTER (-5)

#define MT_N 624
#define MT_M 397

typedef struct {
    int64_t n_cells, n_blocks, n_layers, n_clb, n_sites, n_nets, n_conns;
    int64_t style, cost_kind;
    /* placement state: site per cell, cell (or -1) per layer and site */
    int64_t *cell_site, *occ;
    const int64_t *cell_layer, *site_x, *site_y;
    /* nets (CSR), their q factors and costs; nets of each cell (CSR) */
    const int64_t *net_ptr, *net_cell, *cnet_ptr, *cnet_idx;
    const double *net_q;
    double *net_cost;
    /* connections and the connections of each cell (CSR, each row
     * ascending): the edge-matching connections, or the timing
     * connections of a timed wire-length problem (the two never
     * coexist).  Edge matching also keeps the current site-pair key of
     * each connection and the multiset of keys as an open-addressing
     * table (key -1 = empty). */
    const int64_t *conn_src, *conn_sink, *cconn_ptr, *cconn_idx;
    int64_t *conn_key, *ctr_key, *ctr_cnt;
    int64_t ctr_cap, ctr_size;
    /* scratch: affected nets or connections of the current move, their
     * evaluated costs or new keys, dedup stamps, two set tables */
    int64_t *aff, *aff_key, *net_mark, *conn_mark, *set_a, *set_b;
    double *evaluated;
    int64_t aff_cap, set_cap, n_aff, epoch;
    /* MT19937 state as random.Random.getstate() lists it */
    uint32_t *mt;
    int64_t mti;
    /* timing term: the delay and sharpened criticality of each
     * connection, the affected connections of the current move and
     * their evaluated delays, the running weighted-delay cost, the
     * tradeoff lam, the scale tau and connection_delay's two constants
     * (2 * pin_delay and wire_delay + switch_delay) */
    int64_t timed;
    double *delay;
    const double *weight;
    int64_t *taff;
    double *t_eval;
    int64_t n_taff;
    double t_cost, lam, tau, delay_base, delay_per_tile;
} anneal_t;

typedef struct {
    int64_t cell, other, src, dst;
} move_t;

/* -- CPython's random.Random ------------------------------------------- */

static uint32_t mt_next(anneal_t *st)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = st->mt;
    uint32_t y;
    if (st->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        st->mti = 0;
    }
    y = mt[st->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double mt_random(anneal_t *st)
{
    uint32_t a = mt_next(st) >> 5;
    uint32_t b = mt_next(st) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n) for 1 <= n < 2**32. */
static int64_t mt_randbelow(anneal_t *st, int64_t n)
{
    int k = 0;
    int64_t r;
    while ((n >> k) != 0)
        k++;
    do {
        r = (int64_t)(mt_next(st) >> (32 - k));
    } while (r >= n);
    return r;
}

/* -- CPython 3.11 set iteration order for int keys >= 0 ----------------- */
/* An int hashes to itself; the table starts at 8 slots, probes 9
 * linear neighbours before perturbing, and grows to the first power of
 * two above 4 * used once fill * 5 >= mask * 3.  Nothing is deleted, so
 * fill == used and no dummy entries exist. */

#define LINEAR_PROBES 9
#define PERTURB_SHIFT 5

typedef struct {
    int64_t *table, *spare;
    size_t mask, fill, cap;
} pyset_t;

static void set_init(pyset_t *s, int64_t *table, int64_t *spare, size_t cap)
{
    size_t i;
    s->table = table;
    s->spare = spare;
    s->mask = 7;
    s->fill = 0;
    s->cap = cap;
    for (i = 0; i < 8; i++)
        table[i] = -1;
}

static void set_insert_clean(int64_t *table, size_t mask, int64_t key)
{
    size_t perturb = (size_t)key;
    size_t i = (size_t)key & mask;
    size_t j;
    for (;;) {
        if (table[i] < 0) {
            table[i] = key;
            return;
        }
        if (i + LINEAR_PROBES <= mask) {
            for (j = 1; j <= LINEAR_PROBES; j++) {
                if (table[i + j] < 0) {
                    table[i + j] = key;
                    return;
                }
            }
        }
        perturb >>= PERTURB_SHIFT;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

static int set_add(pyset_t *s, int64_t key)
{
    size_t mask = s->mask;
    size_t perturb = (size_t)key;
    size_t i = (size_t)key & mask;
    size_t newsize, j;
    int64_t *entry, *tmp;
    for (;;) {
        int probes = (i + LINEAR_PROBES <= mask) ? LINEAR_PROBES : 0;
        entry = &s->table[i];
        do {
            if (*entry < 0)
                goto found_unused;
            if (*entry == key)
                return 0;
            entry++;
        } while (probes--);
        perturb >>= PERTURB_SHIFT;
        i = (i * 5 + 1 + perturb) & mask;
    }
found_unused:
    *entry = key;
    s->fill++;
    if (s->fill * 5 < mask * 3)
        return 0;
    newsize = 8;
    while (newsize <= (s->fill > 50000 ? s->fill * 2 : s->fill * 4))
        newsize <<= 1;
    if (newsize > s->cap)
        return ERR_SET;
    for (j = 0; j < newsize; j++)
        s->spare[j] = -1;
    for (j = 0; j <= mask; j++)
        if (s->table[j] >= 0)
            set_insert_clean(s->spare, newsize - 1, s->table[j]);
    tmp = s->table;
    s->table = s->spare;
    s->spare = tmp;
    s->mask = newsize - 1;
    return 0;
}

static int64_t set_order(const pyset_t *s, int64_t *out)
{
    size_t j;
    int64_t n = 0;
    for (j = 0; j <= s->mask; j++)
        if (s->table[j] >= 0)
            out[n++] = s->table[j];
    return n;
}

/* -- left-to-right sum, as Python 3.11's sum() of floats ---------------- */

static double sum_at(const double *values, const int64_t *index, int64_t n)
{
    double total = 0.0;
    int64_t k;
    for (k = 0; k < n; k++)
        total += values[index[k]];
    return total;
}

/* -- edge-matching key multiset ------------------------------------------ */

static size_t ctr_home(int64_t key, size_t mask)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h ^ (h >> 31)) & mask;
}

/* Add d (+1 or -1) to the count of key; returns the new count (an entry
 * reaching zero is removed) or ERR_COUNTER. */
static int64_t ctr_add(anneal_t *st, int64_t key, int64_t d)
{
    size_t mask = (size_t)st->ctr_cap - 1;
    size_t i = ctr_home(key, mask), j, k;
    int64_t *keys = st->ctr_key, *cnt = st->ctr_cnt;
    while (keys[i] >= 0 && keys[i] != key)
        i = (i + 1) & mask;
    if (keys[i] < 0) {
        if (d < 0 || 2 * (st->ctr_size + 1) > st->ctr_cap)
            return ERR_COUNTER;
        keys[i] = key;
        cnt[i] = d;
        st->ctr_size++;
        return d;
    }
    cnt[i] += d;
    if (cnt[i] > 0)
        return cnt[i];
    /* Remove by backward shift: move each later entry of the cluster
     * whose home is not cyclically in (i, j] into the hole. */
    st->ctr_size--;
    j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (keys[j] < 0)
            break;
        k = ctr_home(keys[j], mask);
        if (i <= j ? (i < k && k <= j) : (i < k || k <= j))
            continue;
        keys[i] = keys[j];
        cnt[i] = cnt[j];
        i = j;
    }
    keys[i] = -1;
    return 0;
}

/* -- moves ----------------------------------------------------------------- */

static int64_t slot(const anneal_t *st, int64_t cell, int64_t site)
{
    return st->cell_layer[cell] * st->n_sites + site;
}

static int64_t dist(const int64_t *coord, int64_t a, int64_t b)
{
    int64_t d = coord[a] - coord[b];
    return d < 0 ? -d : d;
}

static int propose(anneal_t *st, double rlim, move_t *mv)
{
    int64_t cell, src, lo, span, dst;
    int64_t n_pads = st->n_cells - st->n_blocks;
    int tries;
    if (st->style == STYLE_SINGLE) {
        int64_t size = st->n_cells > 1 ? st->n_cells : 1;
        int logic = mt_random(st) < (double)st->n_blocks / (double)size;
        if (!logic && n_pads == 0)
            logic = 1;
        else if (logic && st->n_blocks == 0)
            logic = 0;
        cell = logic ? mt_randbelow(st, st->n_blocks)
                     : st->n_blocks + mt_randbelow(st, n_pads);
    } else if (mt_randbelow(st, st->n_cells) < st->n_blocks) {
        cell = mt_randbelow(st, st->n_blocks);
    } else {
        cell = st->n_blocks + mt_randbelow(st, n_pads);
    }
    src = st->cell_site[cell];
    lo = src < st->n_clb ? 0 : st->n_clb;
    span = src < st->n_clb ? st->n_clb : st->n_sites - st->n_clb;
    for (tries = 0; tries < 8; tries++) {
        dst = lo + mt_randbelow(st, span);
        if (dst == src)
            continue;
        if ((double)dist(st->site_x, dst, src) > rlim
            || (double)dist(st->site_y, dst, src) > rlim)
            continue;
        mv->cell = cell;
        mv->src = src;
        mv->dst = dst;
        mv->other = st->occ[slot(st, cell, dst)];
        return 1;
    }
    return 0;
}

static void place_cells(anneal_t *st, const move_t *mv, int forward)
{
    st->cell_site[mv->cell] = forward ? mv->dst : mv->src;
    if (mv->other >= 0)
        st->cell_site[mv->other] = forward ? mv->src : mv->dst;
}

/* Union of the cell's and the other cell's entries of a cell->item CSR,
 * deduplicated with stamps, in first-seen order. */
static int64_t gather(anneal_t *st, const move_t *mv, const int64_t *ptr,
                      const int64_t *idx, int64_t *mark, int64_t *out)
{
    int64_t cells[2], c, k, n = 0;
    int i;
    cells[0] = mv->cell;
    cells[1] = mv->other;
    st->epoch++;
    for (i = 0; i < 2; i++) {
        c = cells[i];
        if (c < 0)
            continue;
        for (k = ptr[c]; k < ptr[c + 1]; k++) {
            if (mark[idx[k]] == st->epoch)
                continue;
            if (n == st->aff_cap)
                return ERR_SCRATCH;
            mark[idx[k]] = st->epoch;
            out[n++] = idx[k];
        }
    }
    return n;
}

/* The affected nets of a move in the order Python sums them. */
static int64_t affected_nets(anneal_t *st, const move_t *mv)
{
    int64_t n, c, k, a, i;
    int side, rc;
    if (st->style == STYLE_SINGLE) {
        n = gather(st, mv, st->cnet_ptr, st->cnet_idx, st->net_mark, st->aff);
        for (i = 1; i < n; i++) {
            a = st->aff[i];
            for (k = i; k > 0 && st->aff[k - 1] > a; k--)
                st->aff[k] = st->aff[k - 1];
            st->aff[k] = a;
        }
        return n;
    }
    {
        pyset_t s;
        set_init(&s, st->set_a, st->set_b, (size_t)st->set_cap);
        for (side = 0; side < 2; side++) {
            c = side ? mv->other : mv->cell;
            if (c < 0)
                continue;
            for (k = st->cnet_ptr[c]; k < st->cnet_ptr[c + 1]; k++) {
                rc = set_add(&s, st->cnet_idx[k]);
                if (rc < 0)
                    return rc;
            }
        }
        if ((int64_t)s.fill > st->aff_cap)
            return ERR_SCRATCH;
        return set_order(&s, st->aff);
    }
}

static double net_bbox_cost(const anneal_t *st, int64_t net)
{
    int64_t k = st->net_ptr[net], end = st->net_ptr[net + 1];
    int64_t s, x, y, xmin, xmax, ymin, ymax;
    if (end - k < 2)
        return 0.0;
    s = st->cell_site[st->net_cell[k]];
    xmin = xmax = st->site_x[s];
    ymin = ymax = st->site_y[s];
    for (; k < end; k++) {
        s = st->cell_site[st->net_cell[k]];
        x = st->site_x[s];
        y = st->site_y[s];
        if (x < xmin)
            xmin = x;
        else if (x > xmax)
            xmax = x;
        if (y < ymin)
            ymin = y;
        else if (y > ymax)
            ymax = y;
    }
    return st->net_q[net] * (double)((xmax - xmin) + (ymax - ymin));
}

static int64_t conn_site_key(const anneal_t *st, int64_t conn)
{
    return st->cell_site[st->conn_src[conn]] * st->n_sites
           + st->cell_site[st->conn_sink[conn]];
}

/* DelayModel.connection_delay over the Manhattan distance of a timing
 * connection's endpoints. */
static double conn_delay(const anneal_t *st, int64_t conn)
{
    int64_t a = st->cell_site[st->conn_src[conn]];
    int64_t b = st->cell_site[st->conn_sink[conn]];
    return st->delay_base
           + (double)(dist(st->site_x, a, b) + dist(st->site_y, a, b))
                 * st->delay_per_tile;
}

/* The timing connections of the moved cells, ascending and
 * deduplicated: a merge of their two ascending CSR rows. */
static int64_t affected_conns(anneal_t *st, const move_t *mv)
{
    const int64_t *idx = st->cconn_idx;
    int64_t a = st->cconn_ptr[mv->cell], a_end = st->cconn_ptr[mv->cell + 1];
    int64_t b = 0, b_end = 0, n = 0;
    if (mv->other >= 0) {
        b = st->cconn_ptr[mv->other];
        b_end = st->cconn_ptr[mv->other + 1];
    }
    if ((a_end - a) + (b_end - b) > st->aff_cap)
        return ERR_SCRATCH;
    while (a < a_end || b < b_end) {
        if (b == b_end || (a < a_end && idx[a] < idx[b]))
            st->taff[n++] = idx[a++];
        else if (a == a_end || idx[b] < idx[a])
            st->taff[n++] = idx[b++];
        else {
            st->taff[n++] = idx[a++];
            b++;
        }
    }
    return n;
}

/* Cost change of a move; leaves what commit() needs in the scratch.
 * Returns 0, or a negative error code. */
static int price(anneal_t *st, const move_t *mv, double *delta)
{
    int64_t n, k, count, d = 0;
    if (st->cost_kind == COST_WIRE_LENGTH) {
        double before, after = 0.0, cost, t_before = 0.0, t_after = 0.0;
        int64_t m = 0, i;
        n = affected_nets(st, mv);
        if (n < 0)
            return (int)n;
        before = sum_at(st->net_cost, st->aff, n);
        if (st->timed) {
            m = affected_conns(st, mv);
            if (m < 0)
                return (int)m;
            for (k = 0; k < m; k++) {
                i = st->taff[k];
                t_before += st->weight[i] * st->delay[i];
            }
        }
        place_cells(st, mv, 1);
        for (k = 0; k < n; k++) {
            cost = net_bbox_cost(st, st->aff[k]);
            st->evaluated[k] = cost;
            after += cost;
        }
        for (k = 0; k < m; k++) {
            cost = conn_delay(st, st->taff[k]);
            st->t_eval[k] = cost;
            t_after += st->weight[st->taff[k]] * cost;
        }
        place_cells(st, mv, 0);
        st->n_aff = n;
        st->n_taff = m;
        *delta = after - before;
        if (st->timed)
            *delta = (1.0 - st->lam) * *delta
                     + st->lam * st->tau * (t_after - t_before);
        return 0;
    }
    /* Edge matching: the change in the number of distinct site-level
     * connections, an integer whatever the visiting order. */
    n = gather(st, mv, st->cconn_ptr, st->cconn_idx, st->conn_mark, st->aff);
    if (n < 0)
        return (int)n;
    for (k = 0; k < n; k++) {
        count = ctr_add(st, st->conn_key[st->aff[k]], -1);
        if (count < 0)
            return (int)count;
        d -= count == 0;
    }
    place_cells(st, mv, 1);
    for (k = 0; k < n; k++) {
        st->aff_key[k] = conn_site_key(st, st->aff[k]);
        count = ctr_add(st, st->aff_key[k], 1);
        if (count < 0)
            return (int)count;
        d += count == 1;
    }
    place_cells(st, mv, 0);
    for (k = 0; k < n; k++)
        if (ctr_add(st, st->aff_key[k], -1) < 0
            || ctr_add(st, st->conn_key[st->aff[k]], 1) < 0)
            return ERR_COUNTER;
    st->n_aff = n;
    *delta = (double)d;
    return 0;
}

/* Apply the move price() just evaluated. */
static int commit(anneal_t *st, const move_t *mv)
{
    int64_t k, n;
    place_cells(st, mv, 1);
    st->occ[slot(st, mv->cell, mv->dst)] = mv->cell;
    st->occ[slot(st, mv->cell, mv->src)] = mv->other;
    if (st->cost_kind == COST_WIRE_LENGTH) {
        for (k = 0; k < st->n_aff; k++)
            st->net_cost[st->aff[k]] = st->evaluated[k];
        for (k = 0; k < st->n_taff; k++) {
            int64_t i = st->taff[k];
            st->t_cost += st->weight[i] * (st->t_eval[k] - st->delay[i]);
            st->delay[i] = st->t_eval[k];
        }
        return 0;
    }
    for (k = 0; k < st->n_aff; k++) {
        if (ctr_add(st, st->conn_key[st->aff[k]], -1) < 0
            || ctr_add(st, st->aff_key[k], 1) < 0)
            return ERR_COUNTER;
        st->conn_key[st->aff[k]] = st->aff_key[k];
    }
    /* The connection list is done with: reuse aff for the nets, whose
     * costs are recomputed as the edge-matching commit does. */
    n = gather(st, mv, st->cnet_ptr, st->cnet_idx, st->net_mark, st->aff);
    if (n < 0)
        return (int)n;
    for (k = 0; k < n; k++)
        st->net_cost[st->aff[k]] = net_bbox_cost(st, st->aff[k]);
    return 0;
}

/* -- entry points ---------------------------------------------------------- */

int repro_anneal_abi(void)
{
    return ABI_VERSION;
}

/* Check the flattened problem and build the occupancy layers and the
 * edge-matching multiset from cell_site and conn_key.  Returns 0 or
 * ERR_INPUT (an index out of range, a cell on the wrong kind of site,
 * two cells on one site of a layer or a timing connection row out of
 * order). */
int64_t repro_anneal_init(anneal_t *st)
{
    int64_t c, k, s, n_slots = st->n_layers * st->n_sites;
    if (st->n_cells < 1 || st->n_blocks < 0 || st->n_blocks > st->n_cells
        || st->n_clb < 0 || st->n_clb > st->n_sites || st->ctr_cap < 2
        || (st->ctr_cap & (st->ctr_cap - 1)) != 0 || st->set_cap < 8)
        return ERR_INPUT;
    for (k = 0; k < n_slots; k++)
        st->occ[k] = -1;
    for (c = 0; c < st->n_cells; c++) {
        s = st->cell_site[c];
        if (s < 0 || s >= st->n_sites || (s < st->n_clb) != (c < st->n_blocks)
            || st->cell_layer[c] < 0 || st->cell_layer[c] >= st->n_layers
            || (c >= st->n_blocks && st->cell_layer[c] != 0)
            || st->occ[slot(st, c, s)] >= 0)
            return ERR_INPUT;
        st->occ[slot(st, c, s)] = c;
    }
    for (k = 0; k < st->net_ptr[st->n_nets]; k++)
        if (st->net_cell[k] < 0 || st->net_cell[k] >= st->n_cells)
            return ERR_INPUT;
    for (k = 0; k < st->cnet_ptr[st->n_cells]; k++)
        if (st->cnet_idx[k] < 0 || st->cnet_idx[k] >= st->n_nets)
            return ERR_INPUT;
    for (k = 0; k < st->ctr_cap; k++)
        st->ctr_key[k] = -1;
    st->ctr_size = 0;
    st->n_taff = 0;
    if (st->cost_kind != COST_EDGE_MATCHING && !st->timed)
        return 0;
    for (c = 0; c < st->n_cells; c++)
        for (k = st->cconn_ptr[c]; k < st->cconn_ptr[c + 1]; k++)
            if (st->cconn_idx[k] < 0 || st->cconn_idx[k] >= st->n_conns
                || (st->timed && k > st->cconn_ptr[c]
                    && st->cconn_idx[k] <= st->cconn_idx[k - 1]))
                return ERR_INPUT;
    for (k = 0; k < st->n_conns; k++) {
        if (st->conn_src[k] < 0 || st->conn_src[k] >= st->n_cells
            || st->conn_sink[k] < 0 || st->conn_sink[k] >= st->n_cells)
            return ERR_INPUT;
        if (st->timed)
            continue;
        st->conn_key[k] = conn_site_key(st, k);
        if (ctr_add(st, st->conn_key[k], 1) < 0)
            return ERR_COUNTER;
    }
    return 0;
}

/* The perturbation moves that set the initial temperature: up to n
 * moves at an unlimited range, every one committed.  Writes the deltas
 * of the proposed moves and returns their number (or an error code). */
int64_t repro_anneal_perturb(anneal_t *st, int64_t n, double *deltas)
{
    move_t mv;
    int64_t i, count = 0;
    int rc;
    for (i = 0; i < n; i++) {
        if (!propose(st, INFINITY, &mv))
            continue;
        rc = price(st, &mv, &deltas[count]);
        if (rc < 0 || (rc = commit(st, &mv)) < 0)
            return rc;
        count++;
    }
    return count;
}

/* One temperature of moves: returns the attempted moves (or an error
 * code), adds the accepted deltas to *cost in order and sets
 * *accepted. */
int64_t repro_anneal_temperature(anneal_t *st, int64_t moves, double rlim,
                                 double temperature, double *cost,
                                 int64_t *accepted)
{
    move_t mv;
    double delta, running = *cost;
    int64_t i, attempted = 0, taken = 0;
    int rc;
    for (i = 0; i < moves; i++) {
        if (!propose(st, rlim, &mv))
            continue;
        attempted++;
        rc = price(st, &mv, &delta);
        if (rc < 0)
            return rc;
        if (delta <= 0 || mt_random(st) < exp(-delta / temperature)) {
            rc = commit(st, &mv);
            if (rc < 0)
                return rc;
            running += delta;
            taken++;
        }
    }
    *cost = running;
    *accepted = taken;
    return attempted;
}

/* -- self-check probes (compared with the interpreter on load) ----------- */

/* ops[k] == 0 draws random(), ops[k] = n > 0 draws randrange(n). */
void repro_anneal_probe_mt(uint32_t *mt, int64_t *mti, const int64_t *ops,
                           int64_t n, double *out)
{
    anneal_t st;
    int64_t k;
    st.mt = mt;
    st.mti = *mti;
    for (k = 0; k < n; k++)
        out[k] = ops[k] == 0 ? mt_random(&st)
                             : (double)mt_randbelow(&st, ops[k]);
    *mti = st.mti;
}

/* Iteration order of a set built by adding keys[0..n) in turn. */
int64_t repro_anneal_probe_set(const int64_t *keys, int64_t n,
                               int64_t *table, int64_t *spare, int64_t cap,
                               int64_t *out)
{
    pyset_t s;
    int64_t k;
    int rc;
    set_init(&s, table, spare, (size_t)cap);
    for (k = 0; k < n; k++) {
        rc = set_add(&s, keys[k]);
        if (rc < 0)
            return rc;
    }
    return set_order(&s, out);
}

/* sum() of values[index[0..n)], as the move loop sums net costs. */
double repro_anneal_probe_sum(const double *values, const int64_t *index,
                              int64_t n)
{
    return sum_at(values, index, n);
}

/* exp() of each value, as the acceptance test takes it. */
void repro_anneal_probe_exp(const double *values, int64_t n, double *out)
{
    int64_t k;
    for (k = 0; k < n; k++)
        out[k] = exp(values[k]);
}
