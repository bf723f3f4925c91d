/*
 * The DisC kernel: every greedy pass over a fixed-radius adjacency, and
 * the edge filter of every grid adjacency build, in C loops.
 *
 * disc_select_batch runs up to max_picks picks of one pass and returns.
 * Per pick it
 *
 *   1. chooses the pick: the argmax of the dense score array (argmin for
 *      zoom-out variant b), lowest id on ties, or the lowest-id white for
 *      the index-order scan;
 *   2. blackens it and greys its white neighbors (and its red ones in
 *      the zoom-out red pass), parking the objects that leave the
 *      candidate pool at the sentinel score;
 *   3. decrements the scores around the sources of the pass: every
 *      object that left the pool, or the greyed whites for zoom-out (c).
 *
 * The adjacency is a flat CSR, or a blocked one: the same CSR holding
 * the sparse remainder plus implicit dense blocks stored as sides (see
 * repro/graph/blocked.py).  Block decrements are per-side deltas applied
 * once per pick, with the clique self-correction.
 *
 * grid_emit_rows emits rows [lo, hi) of a grid plan's candidate table
 * (repro/graph/csr.py) straight into the CSR arrays; see below.
 *
 * Colors are written in place; the caller owns the per-color totals and
 * the cancellation checkpoint between batches.  Nothing here allocates:
 * all scratch is handed in, preallocated at O(n) or O(sides).
 */

#include <math.h>
#include <stdint.h>

enum { WHITE = 0, GREY = 1, BLACK = 2, RED = 3 };

enum {
    MODE_COVER = 0,   /* Greedy-DisC: white candidates, r-DisC */
    MODE_COVER_C = 1, /* Greedy-C: white and grey candidates, r-C */
    MODE_SCAN = 2,    /* Basic-DisC / Zoom-In: lowest-id white */
    MODE_RED_A = 3,   /* zoom-out red pass, most red neighbors */
    MODE_RED_B = 4,   /* zoom-out red pass, fewest red neighbors */
    MODE_RED_C = 5    /* zoom-out red pass, most white neighbors */
};

typedef struct {
    int64_t n;
    const int64_t *indptr;  /* sparse rows, n + 1 entries */
    const int32_t *indices;
    int64_t num_sides;      /* 0 for a flat CSR */
    const int64_t *side_ptr;
    const int32_t *side_members;
    const int64_t *side_partner;
    const uint8_t *side_is_clique;
    const int64_t *mem_indptr; /* node -> containing sides */
    const int32_t *mem_side;
} Graph;

typedef struct {
    int8_t *codes;
    int64_t *scores;       /* unused by MODE_SCAN */
    int64_t sentinel;      /* score of an object outside the pool */
    int64_t pool;          /* in/out: whites left (reds in the red pass) */
    int64_t cursor;        /* in/out: no white below this id */
    int64_t *bound;        /* per-block score bounds, (n + BLOCK - 1) / BLOCK */
    int64_t bounds_ready;  /* in/out: 0 until the bounds are first built */
    int64_t track_min;     /* 1 in the argmin mode (set by the kernel) */
    int64_t seed;          /* in/out: 1 to seed the scores on the next call */
    int32_t *sources;      /* scratch, n entries */
    int64_t *side_delta;   /* scratch, num_sides entries, kept zeroed */
    int32_t *side_touched; /* scratch, num_sides entries */
    int64_t *picks;        /* out, max_picks entries */
    int64_t *newly;        /* out: objects greyed per pick */
    int64_t *row_ptr;      /* out, max_picks + 1 entries, or NULL */
    int32_t *rows;         /* out: each pick's neighbors, or NULL */
    int64_t rows_cap;
} Run;

/*
 * Argmax (argmin) over the scores, lowest id on ties, through per-block
 * bounds over BLOCK consecutive ids.  Every bound is a valid bound on
 * its block: in the max modes scores only fall, so a bound may be stale
 * but never too low; in the min mode every decrement lowers its block's
 * bound on the spot and only the sentinel raises a score.  The search
 * takes the first block with the best bound and rescans it; an exact
 * bound there is the answer, a stale one is corrected and the search
 * repeats.  One pick costs O(n / BLOCK + BLOCK) plus the rescans of
 * stale blocks that outbid the true best.
 */
#define BLOCK_SHIFT 8
#define BLOCK (1 << BLOCK_SHIFT)

static int64_t block_best(const int64_t *s, int64_t lo, int64_t hi,
                          int minimize, int64_t *value)
{
    int64_t best = lo;
    int64_t top = s[lo];
    for (int64_t i = lo + 1; i < hi; i++) {
        if (minimize ? s[i] < top : s[i] > top) {
            top = s[i];
            best = i;
        }
    }
    *value = top;
    return best;
}

static int64_t best_pick(Run *run, int64_t n, int minimize)
{
    const int64_t *s = run->scores;
    int64_t *bound = run->bound;
    const int64_t blocks = (n + BLOCK - 1) >> BLOCK_SHIFT;
    if (!run->bounds_ready) {
        for (int64_t b = 0; b < blocks; b++) {
            int64_t hi = (b + 1) << BLOCK_SHIFT;
            block_best(s, b << BLOCK_SHIFT, hi < n ? hi : n, minimize,
                       &bound[b]);
        }
        run->bounds_ready = 1;
    }
    for (;;) {
        int64_t bb = 0;
        for (int64_t b = 1; b < blocks; b++) {
            if (minimize ? bound[b] < bound[bb] : bound[b] > bound[bb])
                bb = b;
        }
        int64_t hi = (bb + 1) << BLOCK_SHIFT;
        int64_t value;
        int64_t pick = block_best(s, bb << BLOCK_SHIFT, hi < n ? hi : n,
                                  minimize, &value);
        if (value == bound[bb])
            return pick;
        bound[bb] = value;
    }
}

/* One score decrement; the min mode keeps its block bound exact-or-low. */
static inline void lower(int64_t *restrict scores, int64_t *restrict bound,
                         int track_min, int64_t v, int64_t by)
{
    int64_t after = (scores[v] -= by);
    if (track_min && after < bound[v >> BLOCK_SHIFT])
        bound[v >> BLOCK_SHIFT] = after;
}

static int64_t degree(const Graph *g, int64_t v)
{
    int64_t d = g->indptr[v + 1] - g->indptr[v];
    if (g->num_sides == 0)
        return d;
    for (int64_t m = g->mem_indptr[v]; m < g->mem_indptr[v + 1]; m++) {
        int64_t side = g->mem_side[m];
        int64_t p = g->side_partner[side];
        d += g->side_ptr[p + 1] - g->side_ptr[p] - g->side_is_clique[side];
    }
    return d;
}

/* Every source decrements the score of each of its neighbors once. */
static void decrement(const Graph *g, Run *run, int64_t nsrc)
{
    int64_t *restrict scores = run->scores;
    int64_t *restrict bound = run->bound;
    const int track_min = (int)run->track_min;
    for (int64_t k = 0; k < nsrc; k++) {
        int64_t s = run->sources[k];
        const int32_t *row = g->indices + g->indptr[s];
        const int64_t len = g->indptr[s + 1] - g->indptr[s];
        if (track_min) {
            for (int64_t e = 0; e < len; e++)
                lower(scores, bound, 1, row[e], 1);
        } else {
            for (int64_t e = 0; e < len; e++)
                scores[row[e]]--;
        }
    }
    if (g->num_sides == 0)
        return;
    int64_t touched = 0;
    for (int64_t k = 0; k < nsrc; k++) {
        int64_t s = run->sources[k];
        for (int64_t m = g->mem_indptr[s]; m < g->mem_indptr[s + 1]; m++) {
            int64_t side = g->mem_side[m];
            if (run->side_delta[side] == 0)
                run->side_touched[touched++] = (int32_t)side;
            run->side_delta[side]++;
            /* A clique source is not its own neighbor. */
            if (g->side_is_clique[side])
                scores[s]++;
        }
    }
    for (int64_t t = 0; t < touched; t++) {
        int64_t side = run->side_touched[t];
        int64_t d = run->side_delta[side];
        int64_t p = g->side_partner[side];
        for (int64_t j = g->side_ptr[p]; j < g->side_ptr[p + 1]; j++)
            lower(scores, bound, track_min, g->side_members[j], d);
        run->side_delta[side] = 0;
    }
}

/* Is an object of color c a candidate of the pass? */
static inline int candidate(int32_t mode, int8_t c)
{
    if (mode >= MODE_RED_A)
        return c == RED;
    return c == WHITE || (mode == MODE_COVER_C && c == GREY);
}

/*
 * Seed the scores from the colors: every candidate gets its count of
 * neighbors of the counted color (red for zoom-out a/b, white
 * otherwise), everything else the sentinel.  The sparse rows are read
 * from whichever side is cheaper: the candidates' own rows, or the rows
 * of every object not of the counted color, subtracted from the
 * candidates' degrees.  A block side adds its partner's counted
 * population to each candidate member, less the member itself in a
 * clique.
 */
static void seed(const Graph *g, Run *run, int32_t mode)
{
    const int64_t n = g->n;
    const int8_t *codes = run->codes;
    int64_t *restrict scores = run->scores;
    const int8_t counted = (mode == MODE_RED_A || mode == MODE_RED_B) ? RED : WHITE;
    int64_t pull = 0, push = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t d = g->indptr[v + 1] - g->indptr[v];
        if (candidate(mode, codes[v]))
            pull += d;
        if (codes[v] != counted)
            push += d;
    }
    if (pull <= push) {
        for (int64_t v = 0; v < n; v++) {
            if (!candidate(mode, codes[v])) {
                scores[v] = run->sentinel;
                continue;
            }
            int64_t c = 0;
            for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++)
                c += codes[g->indices[e]] == counted;
            scores[v] = c;
        }
    } else {
        for (int64_t v = 0; v < n; v++)
            scores[v] = g->indptr[v + 1] - g->indptr[v];
        for (int64_t v = 0; v < n; v++) {
            if (codes[v] == counted)
                continue;
            for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++)
                scores[g->indices[e]]--;
        }
        for (int64_t v = 0; v < n; v++) {
            if (!candidate(mode, codes[v]))
                scores[v] = run->sentinel;
        }
    }
    if (g->num_sides == 0)
        return;
    int64_t *population = run->side_delta; /* zero on entry and exit */
    for (int64_t side = 0; side < g->num_sides; side++) {
        for (int64_t j = g->side_ptr[side]; j < g->side_ptr[side + 1]; j++)
            population[side] += codes[g->side_members[j]] == counted;
    }
    for (int64_t side = 0; side < g->num_sides; side++) {
        int64_t add = population[g->side_partner[side]];
        for (int64_t j = g->side_ptr[side]; j < g->side_ptr[side + 1]; j++) {
            int64_t m = g->side_members[j];
            if (candidate(mode, codes[m]))
                scores[m] += add - (g->side_is_clique[side] && codes[m] == counted);
        }
    }
    for (int64_t side = 0; side < g->num_sides; side++)
        population[side] = 0;
}

/* Recolor one neighbor of the pick; returns 1 when it was greyed. */
static int visit(Run *run, int32_t mode, int64_t v, int64_t *nsrc)
{
    int8_t c = run->codes[v];
    if (c == WHITE) {
        run->codes[v] = GREY;
        if (mode <= MODE_SCAN)
            run->pool--;
        if (mode == MODE_COVER)
            run->scores[v] = run->sentinel;
        if (mode == MODE_COVER || mode == MODE_COVER_C || mode == MODE_RED_C)
            run->sources[(*nsrc)++] = (int32_t)v;
        return 1;
    }
    if (c == RED && mode >= MODE_RED_A) {
        run->codes[v] = GREY;
        run->pool--;
        run->scores[v] = run->sentinel;
        if (mode != MODE_RED_C)
            run->sources[(*nsrc)++] = (int32_t)v;
        return 1;
    }
    return 0;
}

/*
 * Run up to max_picks picks of one pass.  Returns the number of picks
 * made (the pass is over once run->pool reaches 0), or -1 when the pool
 * is not empty but holds no eligible candidate (inconsistent input).
 * With run->rows set, a batch also ends early rather than overflow
 * rows_cap; the first pick of a batch always fits when rows_cap >= n.
 */
int64_t disc_select_batch(const Graph *g, Run *run, int32_t mode,
                          int64_t max_picks)
{
    const int64_t n = g->n;
    int8_t *codes = run->codes;
    int64_t used = 0;
    int64_t k = 0;
    run->track_min = mode == MODE_RED_B;
    if (run->seed && mode != MODE_SCAN) {
        seed(g, run, mode);
        run->seed = 0;
    }
    if (run->row_ptr != 0)
        run->row_ptr[0] = 0;
    while (k < max_picks && run->pool > 0) {
        int64_t pick;
        if (mode == MODE_SCAN) {
            while (run->cursor < n && codes[run->cursor] != WHITE)
                run->cursor++;
            if (run->cursor == n)
                return -1;
            pick = run->cursor;
        } else if (mode == MODE_RED_B) {
            pick = best_pick(run, n, 1);
            if (codes[pick] != RED)
                return -1;
        } else {
            pick = best_pick(run, n, 0);
            int64_t best = run->scores[pick];
            if (mode >= MODE_RED_A) {
                if (codes[pick] != RED)
                    return -1;
            } else if (best < 0) {
                return -1;
            } else if (best == 0 && codes[pick] != WHITE) {
                /* r-C: a grey with zero gain is not eligible; every white
                 * is isolated, so the pick is the lowest-id white. */
                while (run->cursor < n && codes[run->cursor] != WHITE)
                    run->cursor++;
                if (run->cursor == n)
                    return -1;
                pick = run->cursor;
            }
        }
        if (run->rows != 0) {
            int64_t d = degree(g, pick);
            if (k > 0 && used + d > run->rows_cap)
                break;
        }

        int8_t old = codes[pick];
        codes[pick] = BLACK;
        if (old == WHITE || mode >= MODE_RED_A)
            run->pool--;

        int64_t nsrc = 0;
        int64_t greyed = 0;
        for (int64_t e = g->indptr[pick]; e < g->indptr[pick + 1]; e++) {
            int64_t v = g->indices[e];
            if (run->rows != 0)
                run->rows[used++] = (int32_t)v;
            greyed += visit(run, mode, v, &nsrc);
        }
        for (int64_t m = g->num_sides ? g->mem_indptr[pick] : 0;
             g->num_sides != 0 && m < g->mem_indptr[pick + 1]; m++) {
            int64_t side = g->mem_side[m];
            int64_t p = g->side_partner[side];
            for (int64_t j = g->side_ptr[p]; j < g->side_ptr[p + 1]; j++) {
                int64_t v = g->side_members[j];
                if (v == pick)
                    continue; /* clique: not its own neighbor */
                if (run->rows != 0)
                    run->rows[used++] = (int32_t)v;
                greyed += visit(run, mode, v, &nsrc);
            }
        }

        if (mode != MODE_SCAN) {
            run->scores[pick] = run->sentinel;
            if (mode == MODE_RED_A || mode == MODE_RED_B || old == WHITE)
                run->sources[nsrc++] = (int32_t)pick;
            decrement(g, run, nsrc);
        }
        run->picks[k] = pick;
        run->newly[k] = greyed;
        k++;
        if (run->row_ptr != 0)
            run->row_ptr[k] = used;
    }
    return k;
}

/* ------------------------------------------------------------------ */
/* Grid edge emission                                                  */
/* ------------------------------------------------------------------ */

/* Inline metrics (_GRID_METRICS in _kernel.py), mirroring their paired(). */
enum { METRIC_L2 = 0, METRIC_L1 = 1, METRIC_LINF = 2 };

typedef struct {
    int64_t dim;
    int64_t metric;
    double radius;
    const double *points;   /* n rows of dim coordinates */
    const int64_t *cell_of; /* object -> its cell */
    const int64_t *seg_ptr; /* cell -> its segment of the candidate table */
    const int32_t *cand;    /* candidate ids, ascending per segment */
    const uint8_t *is_auto; /* 1: provably within the radius */
    int32_t *indices;       /* out: cap entries */
    int64_t cap;
    int64_t *degrees;       /* out: n entries */
} GridRows;

/*
 * dist(x, y) <= radius, with the distance accumulated one coordinate at
 * a time exactly as Euclidean/Manhattan/ChebyshevMetric.paired do (x - y
 * per coordinate; the square root for L2; a NaN-propagating max for
 * L-infinity, like np.maximum).  Built with -ffp-contract=off, so no
 * multiply-add is fused and radius ties resolve as in NumPy.
 */
static inline int within(int64_t metric, int64_t dim, double radius,
                         const double *x, const double *y)
{
    double d = x[0] - y[0];
    if (metric == METRIC_L2) {
        double s = d * d;
        for (int64_t k = 1; k < dim; k++) {
            d = x[k] - y[k];
            s += d * d;
        }
        return sqrt(s) <= radius;
    }
    double s = fabs(d);
    for (int64_t k = 1; k < dim; k++) {
        d = fabs(x[k] - y[k]);
        if (metric == METRIC_L1)
            s += d;
        else if (d > s || d != d)
            s = d;
    }
    return s <= radius;
}

/*
 * Emit rows [lo, hi): object p's row is its cell's candidate segment,
 * auto entries kept outright, compute entries kept when within the
 * radius, and p itself dropped.  Kept ids are appended at
 * indices[filled...] and each row's count written to degrees[p].  The
 * keep is branch free: every candidate's distance is computed and every
 * candidate stored before the keep is known, so a row of len
 * candidates needs len free slots, one more than its most edges.
 * Returns the new fill, or -1 (nothing written past cap) when a row
 * would not fit.
 *
 * Inlined with the metric and dimension as constants, so each copy's
 * distance compiles to straight-line code.
 */
static inline __attribute__((always_inline)) int64_t
emit_rows(const GridRows *g, int64_t lo, int64_t hi, int64_t filled,
          const int64_t metric, const int64_t dim)
{
    int32_t *restrict out = g->indices;
    const double radius = g->radius;
    for (int64_t p = lo; p < hi; p++) {
        const double *x = g->points + p * dim;
        const int64_t c = g->cell_of[p];
        const int64_t start = filled;
        if (filled + g->seg_ptr[c + 1] - g->seg_ptr[c] > g->cap)
            return -1;
        for (int64_t e = g->seg_ptr[c]; e < g->seg_ptr[c + 1]; e++) {
            const int64_t q = g->cand[e];
            const int keep = g->is_auto[e] |
                             within(metric, dim, radius, x, g->points + q * dim);
            out[filled] = (int32_t)q;
            filled += keep & (q != p);
        }
        g->degrees[p] = filled - start;
    }
    return filled;
}

int64_t grid_emit_rows(const GridRows *g, int64_t lo, int64_t hi,
                       int64_t filled)
{
    /* Planar points (the paper's numeric datasets) get their own copies. */
    const int64_t dim = g->dim;
    switch (g->metric) {
    case METRIC_L2:
        return dim == 2 ? emit_rows(g, lo, hi, filled, METRIC_L2, 2)
                        : emit_rows(g, lo, hi, filled, METRIC_L2, dim);
    case METRIC_L1:
        return dim == 2 ? emit_rows(g, lo, hi, filled, METRIC_L1, 2)
                        : emit_rows(g, lo, hi, filled, METRIC_L1, dim);
    default:
        return dim == 2 ? emit_rows(g, lo, hi, filled, METRIC_LINF, 2)
                        : emit_rows(g, lo, hi, filled, METRIC_LINF, dim);
    }
}
