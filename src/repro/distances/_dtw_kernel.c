/*
 * The native kernels, one library loaded by native.py with ctypes; each
 * holds a NumPy reference's contract bit for bit, and the Python side
 * validates every input, so nothing is checked here:
 * - dtw_batch: batched DTW, the anti-diagonal kernel in dtw.py
 *   (_dtw_batch_numpy);
 * - assign_windows: the decide half of incremental ingestion,
 *   OnexBase._assign_windows in core/base.py (documented below);
 * - rank_bounds: the query's unbanded rank bound for every
 *   representative, RepresentativeTable.cheap_bounds (documented below);
 * - fast_walk: a fast query's walk over the representatives,
 *   QueryProcessor._walk under its fast rule (documented below).
 *
 * Layout: candidates innermost.  A block of up to BLOCK candidates is
 * transposed to (m, nb), and the cost matrix is scanned row by row, cell
 * (i, j) of every candidate of the block at once: one call of a loop over
 * the candidates with restrict pointers, unconditional loads and ?:
 * selects, which GCC vectorises (and unswitches on the ground).  Edge
 * predecessors point at an inf row (or, for cell (0, 0), a zero row)
 * instead of branching, and path lengths ride in double lanes (exact
 * below 2^53) beside the costs: int lanes beside double ones do not
 * vectorise.  Blocks of 64 keep a block's rows in cache; a whole
 * 2 843-candidate stack per row scan ran 1.2-1.5x slower.
 *
 * The tie-break is dtw_path's: the diagonal wins if diag <= min(up, left),
 * else the vertical step if up <= left, else the horizontal.  The flags
 * it must be built with, and why, are native.py's _FLAGS.  All scratch is
 * allocated per call: ctypes drops the GIL, so concurrent calls share
 * nothing.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 64

enum { TRACK_NONE = 0, TRACK_LENGTH = 1, TRACK_PATH = 2 };

/* Ground cost |a - b| or (a - b)^2. */
static inline double ground(double a, double b, int squared)
{
    double e = a - b;
    return squared ? e * e : fabs(e);
}

/* Cell (i, j) of every candidate: cost only. */
static void step_cost(int64_t nb, int squared, const double *restrict x,
                      const double *restrict y,
                      const double *restrict up, const double *restrict left,
                      const double *restrict diag, double *restrict out)
{
    for (int64_t c = 0; c < nb; c++) {
        double u = up[c], l = left[c], g = diag[c];
        double best = u <= l ? u : l;
        best = g <= best ? g : best;
        out[c] = best + ground(x[c], y[c], squared);
    }
}

/* Cost and the tie-broken path's length. */
static void step_length(int64_t nb, int squared, const double *restrict x,
                        const double *restrict y,
                        const double *restrict up, const double *restrict left,
                        const double *restrict diag, double *restrict out,
                        const double *restrict len_up,
                        const double *restrict len_left,
                        const double *restrict len_diag,
                        double *restrict len_out)
{
    for (int64_t c = 0; c < nb; c++) {
        double u = up[c], l = left[c], g = diag[c];
        double lu = len_up[c], ll = len_left[c], lg = len_diag[c];
        double best = u <= l ? u : l;
        double len = u <= l ? lu : ll;
        len = g <= best ? lg : len;
        out[c] = (g <= best ? g : best) + ground(x[c], y[c], squared);
        len_out[c] = len + 1.0;
    }
}

/* Cost and the two comparisons, as up_wins + 2 * diag_wins. */
static void step_codes(int64_t nb, int squared, const double *restrict x,
                       const double *restrict y,
                       const double *restrict up, const double *restrict left,
                       const double *restrict diag, double *restrict out,
                       int8_t *restrict codes)
{
    for (int64_t c = 0; c < nb; c++) {
        double u = up[c], l = left[c], g = diag[c];
        int up_wins = u <= l;
        double best = up_wins ? u : l;
        int diag_wins = g <= best;
        out[c] = (diag_wins ? g : best) + ground(x[c], y[c], squared);
        codes[c] = (int8_t)(up_wins + 2 * diag_wins);
    }
}

/* Cells of candidates whose own band is narrower than |i - j|. */
static void mask_band(int64_t nb, double offset, const double *restrict band,
                      double *restrict out)
{
    for (int64_t c = 0; c < nb; c++)
        out[c] = offset > band[c] ? INFINITY : out[c];
}

/*
 * Walk one candidate back from (n - 1, m_c - 1); returns the path length.
 * Row 0 steps left and column 0 steps up whatever the cell's code says, as
 * dtw_path does: where costs overflow to inf every comparison ties and
 * the code reads "diagonal" there too.  Each step lowers i + j and keeps
 * both >= 0, so the walk ends at (0, 0) within n + m_c - 1 cells.
 */
static int64_t trace(const int8_t *codes, int64_t nb, int64_t m, int64_t c,
                     int64_t i, int64_t j, int64_t *restrict pi,
                     int64_t *restrict pj)
{
    int64_t p = 0;
    for (;;) {
        pi[p] = i;
        pj[p] = j;
        p++;
        if (i == 0 && j == 0)
            break;
        int code = i && j ? codes[(i * m + j) * nb + c] : i ? 1 : 0;
        if (code >= 2) {
            i--;
            j--;
        } else if (code == 1) {
            i--;
        } else {
            j--;
        }
    }
    for (int64_t lo = 0, hi = p - 1; lo < hi; lo++, hi--) {
        int64_t t = pi[lo];
        pi[lo] = pi[hi];
        pi[hi] = t;
        t = pj[lo];
        pj[lo] = pj[hi];
        pj[hi] = t;
    }
    return p;
}

static double abs_diff_sum(const double *a, const double *b, int64_t n);

/*
 * DTW from x to g candidates, the rows of a (g, width) matrix of which
 * row c is read to lens[c] time steps (to m when lens is NULL).  x is one
 * query of n time steps (x_stride 0) or, paired, a (g, n * channels) stack
 * (x_stride n * channels).  A time step is channels contiguous values;
 * with more than one, row i's ground costs are abs_diff_sum over them,
 * read in place (the block copies go unused), and run through step_* as
 * y against a zero x lane, which the l1 ground reads back unchanged.
 * window < 0 is unconstrained; otherwise candidate c's band is
 * max(window, |n - m_c|).  Writes dist[g]; with TRACK_LENGTH plens[g];
 * with TRACK_PATH plens[g] and each path's cells into rows of path_i and
 * path_j (path_width >= n + m - 1 wide, prefilled by the caller).
 * Returns 0, or -1 when scratch cannot be allocated.
 */
int dtw_batch(const double *x, int64_t x_stride, const double *rows,
              int64_t width, const int64_t *lens, int64_t g, int64_t n,
              int64_t m, int64_t channels, int64_t window, int32_t squared,
              int32_t track,
              double *dist, int64_t *plens, int64_t *path_i, int64_t *path_j,
              int64_t path_width)
{
    int64_t cap = g < BLOCK ? g : BLOCK;
    int64_t row = m * cap;
    int lengths = track == TRACK_LENGTH;
    double *scratch = malloc(sizeof(double) * (size_t)(n * cap + 4 * row + 3 * cap));
    double *lens_scratch = lengths ? calloc((size_t)(2 * row), sizeof(double)) : NULL;
    int8_t *codes = track == TRACK_PATH ? malloc((size_t)(n * row)) : NULL;
    if (!scratch || (lengths && !lens_scratch) || (track == TRACK_PATH && !codes)) {
        free(scratch);
        free(lens_scratch);
        free(codes);
        return -1;
    }

    for (int64_t b0 = 0; b0 < g; b0 += cap) {
        int64_t nb = g - b0 < cap ? g - b0 : cap;
        double *xs = scratch;              /* (n, nb) query values */
        double *cols = xs + n * cap;       /* (m, nb) candidates */
        double *prev = cols + row;         /* row i - 1 of the cost matrix */
        double *cur = prev + row;          /* row i */
        double *band = cur + row;          /* per-candidate bands */
        double *inf = band + cap;
        double *zero = inf + cap;
        double *grounds = zero + cap;      /* (m, nb) row i's, channels > 1 */
        double *len_prev = lens_scratch;
        double *len_cur = lengths ? lens_scratch + row : NULL;

        for (int64_t i = 0; i < n; i++)
            for (int64_t c = 0; c < nb; c++)
                xs[i * nb + c] = x[(b0 + c) * x_stride + i];
        for (int64_t c = 0; c < nb; c++) {
            const double *src = rows + (b0 + c) * width;
            for (int64_t j = 0; j < m; j++)
                cols[j * nb + c] = src[j];
        }
        /* Cells right of a row's band are read once, as inf, by the next
         * row; they are never written, so one fill per block suffices. */
        for (int64_t k = 0; k < m * nb; k++)
            prev[k] = cur[k] = INFINITY;
        int64_t widest = -1, narrowest = -1;
        for (int64_t c = 0; c < nb; c++) {
            inf[c] = INFINITY;
            zero[c] = 0.0;
            if (window >= 0) {
                int64_t mc = lens ? lens[b0 + c] : m;
                int64_t own = n > mc ? n - mc : mc - n;
                own = own > window ? own : window;
                band[c] = (double)own;
                widest = own > widest ? own : widest;
                narrowest = (narrowest < 0 || own < narrowest) ? own : narrowest;
            }
        }

        for (int64_t i = 0; i < n; i++) {
            int64_t lo = 0, hi = m - 1;
            if (widest >= 0) {
                lo = i - widest > 0 ? i - widest : 0;
                hi = i + widest < m - 1 ? i + widest : m - 1;
            }
            const double *x_row = xs + i * nb, *y_cols = cols;
            if (channels > 1) {
                for (int64_t j = lo; j <= hi; j++)
                    for (int64_t c = 0; c < nb; c++)
                        grounds[j * nb + c] = abs_diff_sum(
                            x + (b0 + c) * x_stride + i * channels,
                            rows + (b0 + c) * width + j * channels, channels);
                x_row = zero;
                y_cols = grounds;
            }
            for (int64_t j = lo; j <= hi; j++) {
                const double *xi = x_row, *yj = y_cols + j * nb;
                const double *up = i ? prev + j * nb : inf;
                const double *left = j > lo ? cur + (j - 1) * nb : inf;
                const double *diag = i && j ? prev + (j - 1) * nb
                                            : (i || j ? inf : zero);
                double *out = cur + j * nb;
                if (track == TRACK_LENGTH) {
                    step_length(nb, squared, xi, yj, up, left, diag, out,
                                i ? len_prev + j * nb : zero,
                                j > lo ? len_cur + (j - 1) * nb : zero,
                                i && j ? len_prev + (j - 1) * nb : zero,
                                len_cur + j * nb);
                } else if (track == TRACK_PATH) {
                    step_codes(nb, squared, xi, yj, up, left, diag, out,
                               codes + (i * m + j) * nb);
                } else {
                    step_cost(nb, squared, xi, yj, up, left, diag, out);
                }
                int64_t offset = i > j ? i - j : j - i;
                if (narrowest >= 0 && offset > narrowest)
                    mask_band(nb, (double)offset, band, out);
            }
            double *t = prev;
            prev = cur;
            cur = t;
            if (lengths) {
                t = len_prev;
                len_prev = len_cur;
                len_cur = t;
            }
        }

        for (int64_t c = 0; c < nb; c++) {
            int64_t mc = lens ? lens[b0 + c] : m;
            dist[b0 + c] = prev[(mc - 1) * nb + c];
            if (lengths)
                plens[b0 + c] = (int64_t)len_prev[(mc - 1) * nb + c];
            else if (track == TRACK_PATH)
                plens[b0 + c] = trace(codes, nb, m, c, n - 1, mc - 1,
                                      path_i + (b0 + c) * path_width,
                                      path_j + (b0 + c) * path_width);
        }
    }
    free(scratch);
    free(lens_scratch);
    free(codes);
    return 0;
}

/*
 * sum_i |a[i] - b[i]| in the order NumPy's float64 add-reduce sums a row
 * (its pairwise_sum): below 8 terms in sequence; up to 128 in 8 strided
 * accumulators combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
 * r7)), then the remainder in sequence; longer rows split at a multiple
 * of 8 and recurse.  The reduce adds this to its identity 0.0, a no-op
 * for a sum of non-negative terms.
 */
static double abs_diff_sum(const double *a, const double *b, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += fabs(a[i] - b[i]);
        return res;
    }
    if (n > 128) {
        int64_t half = n / 2;
        half -= half % 8;
        return abs_diff_sum(a, b, half) + abs_diff_sum(a + half, b + half, n - half);
    }
    double r[8];
    int64_t i;
    for (int j = 0; j < 8; j++)
        r[j] = fabs(a[j] - b[j]);
    for (i = 8; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += fabs(a[i + j] - b[i + j]);
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += fabs(a[i] - b[i]);
    return res;
}

/* ndarray.max() of |x|, from 0.0: NaN as soon as one term is NaN. */
static double max_abs(const double *x, int64_t n)
{
    double peak = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = fabs(x[i]);
        if (v != v)
            return v;
        peak = v > peak ? v : peak;
    }
    return peak;
}

/*
 * Is d the new running minimum of an argmin over a row seen so far as
 * (best, found)?  As np.argmin: the first NaN wins and holds, else the
 * first of the smallest.
 */
static inline int improves(double d, double best, int found)
{
    return !found || (best == best && (d != d || d < best));
}

/*
 * Decide the groups of every window one ingestion call completed, all
 * lengths in one call.  plan holds four rows of `segments` entries: the
 * lengths, firsts, counts and groups of the segments.  Segment s holds
 * counts[s] windows of length lens[s], starting at firsts[s], firsts[s] +
 * step, ...; each is read in place from the series' row-major values
 * (channels per time step) at offset start * channels, width lens[s] *
 * channels.  stores[s] and stores[segments + s] are that length's
 * centroid stack and row means, groups[s] rows each; means[] are the
 * windows' means, segment after segment.
 *
 * The rule, window by window: the nearest representative by ED_n among
 * those whose mean is within the cutoff of the window's (lowest group on
 * ties, NaN as np.argmin), then the nearest of the call's own seeds wins
 * on a strictly smaller distance only; join within radius, else seed a
 * group numbered groups[s] + seeds so far.  The cutoff is
 * grouping.mean_prescreen_cutoff plus slack.
 *
 * Writes owners[] and created[] per window and order[], segment by
 * segment, the store order: the segment's seeds in window order, then its
 * joins group by group in order of each group's first join.  *evaluated
 * counts the (window, representative) pairs whose ED_n was computed.
 * Returns 0, or -1 when scratch cannot be allocated.
 */
int assign_windows(const double *values, int64_t channels, int64_t step,
                   int64_t segments, const int64_t *plan,
                   const double *const *stores, const double *means,
                   double slack, double radius, double margin,
                   int64_t *owners, int8_t *created, int64_t *order,
                   int64_t *evaluated)
{
    const int64_t *lens = plan, *firsts = plan + segments;
    const int64_t *counts = plan + 2 * segments, *groups = plan + 3 * segments;
    int64_t most = 1, span = 1;
    for (int64_t s = 0; s < segments; s++) {
        most = counts[s] > most ? counts[s] : most;
        span = groups[s] + counts[s] > span ? groups[s] + counts[s] : span;
    }
    const double **fresh = malloc(sizeof(double *) * (size_t)most);
    int64_t *next = malloc(sizeof(int64_t) * (size_t)most);
    int64_t *head = malloc(sizeof(int64_t) * (size_t)span);
    int64_t *tail = malloc(sizeof(int64_t) * (size_t)span);
    int64_t *near = malloc(sizeof(int64_t) * (size_t)span);
    if (!fresh || !next || !head || !tail || !near) {
        free(fresh);
        free(next);
        free(head);
        free(tail);
        free(near);
        return -1;
    }
    for (int64_t g = 0; g < span; g++)
        head[g] = -1;

    int64_t scanned = 0;
    for (int64_t s = 0, at = 0; s < segments; at += counts[s], s++) {
        int64_t k = counts[s], g = groups[s], width = lens[s] * channels;
        const double *cent = stores[s], *cmean = stores[segments + s];
        const double *mu = means + at;
        double rows_peak = max_abs(mu, k), cent_peak = max_abs(cmean, g);
        double peak = cent_peak > rows_peak ? cent_peak : rows_peak;
        double cutoff = (radius + margin * (1.0 + peak)) + slack;
        int64_t seeds = 0;

        for (int64_t j = 0; j < k; j++) {
            const double *w = values + (firsts[s] + j * step) * channels;
            double best = INFINITY;
            int64_t pick = 0, survivors = 0;
            /* The prescreen's survivors, ascending, without a branch. */
            for (int64_t c = 0; c < g; c++) {
                near[survivors] = c;
                survivors += fabs(cmean[c] - mu[j]) <= cutoff;
            }
            for (int64_t i = 0; i < survivors; i++) {
                int64_t c = near[i];
                double d = abs_diff_sum(w, cent + c * width, width) / (double)width;
                if (improves(d, best, i > 0)) {
                    best = d;
                    pick = c;
                }
            }
            scanned += survivors;
            double nearest = 0.0;
            int64_t f_pick = 0;
            for (int64_t f = 0; f < seeds; f++) {
                double d = abs_diff_sum(w, fresh[f], width) / (double)width;
                if (improves(d, nearest, f > 0)) {
                    nearest = d;
                    f_pick = f;
                }
            }
            if (seeds && nearest < best) {
                best = nearest;
                pick = g + f_pick;
            }
            if (best <= radius) {
                owners[at + j] = pick;
                created[at + j] = 0;
            } else {
                owners[at + j] = g + seeds;
                created[at + j] = 1;
                fresh[seeds++] = w;
            }
        }

        /* The store order; head/tail/next chain each group's joins. */
        int64_t out = at;
        for (int64_t j = 0; j < k; j++) {
            if (created[at + j]) {
                order[out++] = at + j;
                continue;
            }
            int64_t owner = owners[at + j];
            if (head[owner] < 0)
                head[owner] = j;
            else
                next[tail[owner]] = j;
            tail[owner] = j;
            next[j] = -1;
        }
        for (int64_t j = 0; j < k; j++)
            if (!created[at + j] && head[owners[at + j]] == j)
                for (int64_t x = j; x >= 0; x = next[x])
                    order[out++] = at + x;
        for (int64_t j = 0; j < k; j++)
            if (!created[at + j])
                head[owners[at + j]] = -1;
    }
    *evaluated = scanned;
    free(fresh);
    free(next);
    free(head);
    free(tail);
    free(near);
    return 0;
}

/*
 * RepresentativeTable.cheap_bounds with no band, for g table rows (rows
 * NULL: the first g; else the listed ones): LB_Kim from the (G, 4)
 * endpoints (lb_kim_endpoints_batch with per-row lengths) combined by
 * np.fmax with the closed-form breach of the min/max band [lo, hi]
 * (_band_breach, ground l1), both in lower_bounds.py, rounding margin
 * included.  q is the query (n finite points); pts, sums and absum are
 * its sorted values, their n + 1 prefix sums (sums[0] = 0) and the sum of
 * their magnitudes, as _band_breach computes them.  Every expression is
 * NumPy's, term for term and in its order, so each bound is
 * bit-identical, +-inf included.  Writes out[g] and returns 0, or
 * returns 1 where a NaN reached a select (below).
 *
 * Rows go in blocks of RANK_BLOCK, gathered into columns, and each row's
 * two searchsorted counts are branchless binary searches of about
 * log2(n) + 1 steps, not n compares, so the pass stays ahead of NumPy at
 * every query length.  A block runs plain ?: selects, which vectorise
 * and equal NumPy's minimum, maximum and fmax wherever no NaN reaches
 * them; only a NaN table value or inf - inf in the margin makes one, and
 * either leaves the block's probe sum NaN.  Then nothing is finished:
 * it returns 1 and the caller runs the NumPy composition.
 */
#define RANK_BLOCK 256

int rank_bounds(const double *q, const double *pts, const double *sums,
                int64_t n, double absum, const double *endpoints,
                const double *lo, const double *hi, const int64_t *lengths,
                const int64_t *rows, int64_t g, double *out)
{
    /* 4.0 * (n + 2) * np.finfo(np.float64).eps, as Python evaluates it. */
    double coef = 4.0 * (double)(n + 2) * 2.220446049250313e-16;
    int64_t needed = n >= 4 ? 3 : 4, full = n >= 3;
    double q0 = q[0], q1 = q[n >= 3], qb = q[n >= 3 ? n - 2 : 0], ql = q[n - 1];
    double e0[RANK_BLOCK], e1[RANK_BLOCK], e2[RANK_BLOCK], e3[RANK_BLOCK];
    double lob[RANK_BLOCK], hib[RANK_BLOCK], fulls[RANK_BLOCK];
    double above[RANK_BLOCK], below[RANK_BLOCK], over[RANK_BLOCK];
    double under[RANK_BLOCK];
    int64_t ia[RANK_BLOCK], ib[RANK_BLOCK];

    for (int64_t b0 = 0; b0 < g; b0 += RANK_BLOCK) {
        int64_t nb = g - b0 < RANK_BLOCK ? g - b0 : RANK_BLOCK;
        double *res = out + b0;
        for (int64_t c = 0; c < nb; c++) {
            int64_t r = rows ? rows[b0 + c] : b0 + c;
            e0[c] = endpoints[4 * r];
            e1[c] = endpoints[4 * r + 1];
            e2[c] = endpoints[4 * r + 2];
            e3[c] = endpoints[4 * r + 3];
            lob[c] = lo[r];
            hib[c] = hi[r];
            fulls[c] = full && lengths[r] >= needed;
        }
        /*
         * searchsorted(pts, hi, "right") and (pts, lo, "left") for the
         * block at once: each count lies in [ia, ia + len], and len's
         * steps depend on n alone.
         */
        for (int64_t c = 0; c < nb; c++)
            ia[c] = ib[c] = 0;
        for (int64_t len = n; len > 1; len -= len / 2) {
            int64_t half = len / 2;
            const double *p = pts + half - 1;
            for (int64_t c = 0; c < nb; c++) {
                ia[c] += p[ia[c]] <= hib[c] ? half : 0;
                ib[c] += p[ib[c]] < lob[c] ? half : 0;
            }
        }
        for (int64_t c = 0; c < nb; c++) {
            int64_t a = ia[c] + (pts[ia[c]] <= hib[c]), b = ib[c] + (pts[ib[c]] < lob[c]);
            above[c] = (double)a;
            below[c] = (double)b;
            over[c] = sums[n] - sums[a];
            under[c] = sums[b];
        }
        for (int64_t c = 0; c < nb; c++) {
            double l = lob[c], h = hib[c];
            double kim = fabs(q0 - e0[c]) + fabs(ql - e3[c]);
            double m1 = fabs(q1 - e0[c]), m2 = fabs(q1 - e1[c]);
            double m3 = fabs(q0 - e1[c]), m4 = fabs(qb - e3[c]);
            double m5 = fabs(qb - e2[c]), m6 = fabs(ql - e2[c]);
            m1 = m1 <= m2 ? m1 : m2;
            m1 = m1 <= m3 ? m1 : m3;
            m4 = m4 <= m5 ? m4 : m5;
            m4 = m4 <= m6 ? m4 : m6;
            double wide = (kim + m1) + m4;  /* read by the probe too, so */
            kim = fulls[c] != 0.0 ? wide : kim;  /* this stays a select */
            double reach = -l >= h ? -l : h;
            double band = (over[c] - ((double)n - above[c]) * h) + (below[c] * l - under[c]);
            band = band - coef * (absum + (double)n * reach);
            double breach = band > 0.0 ? band : 0.0;
            res[c] = kim >= breach ? kim : breach;
            /* NaN when a select above may have met one: a NaN endpoint
             * makes wide NaN, a NaN l or h or inf - inf makes band NaN. */
            above[c] = wide + band;
        }
        for (int64_t c = 0; c < nb; c++)
            if (above[c] != above[c])
                return 1;
    }
    return 0;
}

/*
 * A min-heap entry of the fast walk's pending groups, ordered by
 * (estimate, length, row) as the Python walk's heap tuple is; at rides
 * along.  No estimate is NaN.
 */
typedef struct {
    double key;
    int64_t length, row, at;
} entry;

static inline int before(const entry *x, const entry *y)
{
    if (x->key != y->key)
        return x->key < y->key;
    if (x->length != y->length)
        return x->length < y->length;
    return x->row < y->row;
}

static void push(entry *heap, int64_t *size, entry e)
{
    int64_t i = (*size)++;
    for (int64_t parent; i && before(&e, &heap[parent = (i - 1) / 2]); i = parent)
        heap[i] = heap[parent];
    heap[i] = e;
}

static entry pop(entry *heap, int64_t *size)
{
    entry top = heap[0], moving = heap[--*size];
    int64_t i = 0;
    for (int64_t child; (child = 2 * i + 1) < *size; i = child) {
        if (child + 1 < *size && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &moving))
            break;
        heap[i] = heap[child];
    }
    heap[i] = moving;
    return top;
}

/* A rank key and its index. */
typedef struct {
    double key;
    int64_t at;
} ranked;

/* The kth smallest of v[0..n), 0 <= kth < n; reorders v. */
static double select_kth(double *v, int64_t n, int64_t kth)
{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        double a = v[lo], b = v[lo + (hi - lo) / 2], c = v[hi];
        double pivot = a < b ? (b < c ? b : (a < c ? c : a)) : (a < c ? a : (b < c ? c : b));
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (v[i] < pivot)
                i++;
            while (v[j] > pivot)
                j--;
            if (i <= j) {
                double t = v[i];
                v[i++] = v[j];
                v[j--] = t;
            }
        }
        if (kth <= j)
            hi = j;
        else if (kth >= i)
            lo = i;
        else
            return v[kth];
    }
    return v[kth];
}

/* A key's bits as an unsigned integer in the keys' order; -0.0 is 0.0. */
static inline uint64_t ordered(double key)
{
    double canonical = key + 0.0;
    uint64_t bits;
    memcpy(&bits, &canonical, sizeof bits);
    return bits ^ (bits >> 63 ? ~(uint64_t)0 : (uint64_t)1 << 63);
}

/*
 * Sort x[0..n) by key, stably: a least-significant-byte radix sort of the
 * ordered key bits, skipping a byte that every key shares.  tmp holds n
 * entries.
 */
static void radix_sort(ranked *x, ranked *tmp, int64_t n)
{
    int64_t counts[8][256] = {{0}};
    for (int64_t i = 0; i < n; i++) {
        uint64_t bits = ordered(x[i].key);
        for (int d = 0; d < 8; d++)
            counts[d][(bits >> 8 * d) & 255]++;
    }
    ranked *from = x, *to = tmp;
    for (int d = 0; n && d < 8; d++) {
        int64_t *slot = counts[d];
        if (slot[(ordered(from[0].key) >> 8 * d) & 255] == n)
            continue;
        for (int64_t b = 0, at = 0; b < 256; b++) {
            int64_t count = slot[b];
            slot[b] = at;
            at += count;
        }
        for (int64_t i = 0; i < n; i++)
            to[slot[(ordered(from[i].key) >> 8 * d) & 255]++] = from[i];
        ranked *swap = from;
        from = to;
        to = swap;
    }
    if (from != x)
        memcpy(x, from, sizeof(ranked) * (size_t)n);
}

/*
 * _LazyOrder.upto(stop) for the fast walk: order[0..*ready) is the head
 * of np.argsort(keys, kind="stable"), and keys above *edge (every key
 * while *fresh) are in no block yet.  A block is every such key no
 * greater than a pivot, collected in index order and radix-sorted by key,
 * so the head stays the stable argsort whatever the pivot.  The pivot is
 * the quantile of every 16th such key that should admit twice what the
 * walk wants (the rest of stop, and at least 256); a block that falls
 * short is followed by another.  rest is scratch of g / 16 + 1 keys,
 * order and spare of g entries.
 */
static void extend(const double *keys, int64_t g, int64_t stop, ranked *order,
                   int64_t *ready, double *edge, int *fresh, double *rest,
                   ranked *spare)
{
    while (*ready < stop) {
        double low = *edge;
        int all = *fresh;
        int64_t want = stop - *ready > 256 ? stop - *ready : 256, left = 0;
        for (int64_t i = 0; i < g; i += 16)
            if (all || keys[i] > low)
                rest[left++] = keys[i];
        int64_t rank = want / 8;
        double pivot = rank < left ? select_kth(rest, left, rank) : INFINITY;
        int64_t start = *ready, got = start;
        for (int64_t i0 = 0; i0 < g; i0 += 8) {
            /* Eight keys at a time: only a run whose least key is within
             * the pivot is looked at key by key. */
            double least = keys[i0];
            for (int64_t i = i0 + 1; i < i0 + 8 && i < g; i++)
                least = keys[i] < least ? keys[i] : least;
            if (least <= pivot)
                for (int64_t i = i0; i < i0 + 8 && i < g; i++)
                    if ((all || keys[i] > low) && keys[i] <= pivot)
                        order[got++] = (ranked){keys[i], i};
        }
        *ready = got;
        radix_sort(order + start, spare, got - start);
        *edge = pivot;
        *fresh = 0;
    }
}

/*
 * QueryProcessor._walk under its fast rule (_Top) for g representatives:
 * keys[i] is representative i's rank key, lengths[i] and gids[i] its
 * bucket and group there, rows[i] its table row (rows NULL: i).  stores[L]
 * is the length-L bucket's centroid stack and stores[top + L] its member
 * counts (int64), both read in place.
 *
 * The rule, step by step: stop once `groups` groups holding >= k members
 * are chosen, or nothing is left; else verify the next chunk of the key
 * order (16, doubling) when its first key is no greater than the best
 * pending estimate, else choose the best pending group.  The key order is
 * np.argsort(keys, kind="stable"), sorted a block at a time (extend).  A
 * verified representative's estimate is raw DTW over max(n, L), from
 * dtw_batch: the chunk is sorted by length and run in blocks of BLOCK,
 * each as wide as its own widest row, which changes no row's cost.
 *
 * Writes the chosen table rows, in order, to chosen[] and (chosen,
 * verified) to tally[2]; returns 0.  Returns 1, having chosen nothing,
 * where a key is NaN or a verified centroid holds a non-finite value
 * (the caller's walk decides those: the heap would not order a NaN, and
 * dtw_batch's callers reject such rows), and -1 when scratch cannot be
 * allocated.
 */
#define AHEAD 8 /* centroid rows fetched ahead of the one copied */

int fast_walk(const double *q, int64_t n, const double *keys,
              const int64_t *lengths, const int64_t *gids, const int64_t *rows,
              int64_t g, const void *const *stores, int64_t top, int64_t k,
              int64_t groups, int64_t window, int64_t *chosen, int64_t *tally)
{
    for (int64_t i = 0; i < g; i++)
        if (keys[i] != keys[i])
            return 1;
    int64_t most = g ? g : 1;
    double *rest = malloc(sizeof(double) * (size_t)(g / 16 + 1));
    ranked *order = malloc(sizeof(ranked) * (size_t)most);
    ranked *spare = malloc(sizeof(ranked) * (size_t)most);
    entry *pending = malloc(sizeof(entry) * (size_t)most);
    int64_t *sorted = malloc(sizeof(int64_t) * (size_t)most);
    int64_t *lens = malloc(sizeof(int64_t) * (size_t)most);
    const double **rowp = malloc(sizeof(double *) * (size_t)most);
    int64_t *slots = calloc((size_t)(top + 1), sizeof(int64_t));
    double *dist = malloc(sizeof(double) * (size_t)most);
    double *padded = NULL;
    int status = -1;
    if (!rest || !order || !spare || !pending || !sorted || !lens || !rowp ||
        !slots || !dist)
        goto done;

    int64_t ready = 0, verified = 0, waiting = 0, picked = 0, members = 0;
    int fresh = 1;
    double edge = 0.0;
    for (int64_t chunk = 16; waiting || verified < g; ) {
        if (picked >= groups && members >= k)
            break;
        /* The key order is extended only as far as the walk reads it: a
         * step that chooses reads the next key, one that verifies a chunk. */
        int64_t stop = verified + chunk < g ? verified + chunk : g;
        if (ready == verified)
            extend(keys, g, stop, order, &ready, &edge, &fresh, rest, spare);
        if (verified == g || (waiting && pending[0].key < order[verified].key)) {
            entry best = pop(pending, &waiting);
            chosen[picked++] = best.row;
            members += ((const int64_t *)stores[top + best.length])[gids[best.at]];
            continue;
        }
        extend(keys, g, stop, order, &ready, &edge, &fresh, rest, spare);
        const ranked *take = order + verified;
        int64_t size = stop - verified, widest = 0;
        chunk *= 2;
        /* The chunk by length, stably (a counting sort). */
        for (int64_t c = 0; c < size; c++)
            slots[lengths[take[c].at]]++;
        for (int64_t length = 0, at = 0; length <= top; length++) {
            int64_t count = slots[length];
            slots[length] = at;
            at += count;
            widest = count ? length : widest;
        }
        for (int64_t c = 0; c < size; c++)
            sorted[slots[lengths[take[c].at]]++] = take[c].at;
        for (int64_t length = 0; length <= top; length++)
            slots[length] = 0;
        free(padded);
        padded = malloc(sizeof(double) * (size_t)size * (size_t)widest);
        if (!padded)
            goto done;
        /* The rows are scattered over the stores: each is fetched ahead. */
        for (int64_t c = 0; c < size; c++) {
            int64_t at = sorted[c], length = lengths[at];
            lens[c] = length;
            rowp[c] = (const double *)stores[length] + gids[at] * length;
        }
        for (int64_t c = 0; c < size && c < AHEAD; c++)
            __builtin_prefetch(rowp[c]);
        double probe = 0.0; /* NaN once a copied value is not finite */
        for (int64_t c = 0; c < size; c++) {
            const double *src = rowp[c];
            if (c + AHEAD < size)
                __builtin_prefetch(rowp[c + AHEAD]);
            for (int64_t j = 0; j < lens[c]; j++) {
                padded[c * widest + j] = src[j];
                probe += src[j] - src[j];
            }
        }
        if (probe != probe) {
            status = 1;
            goto done;
        }
        for (int64_t b0 = 0; b0 < size; b0 += BLOCK) {
            int64_t nb = size - b0 < BLOCK ? size - b0 : BLOCK;
            if (dtw_batch(q, 0, padded + b0 * widest, widest, lens + b0, nb, n,
                          lens[b0 + nb - 1], 1, window, 0, TRACK_NONE, dist + b0,
                          NULL, NULL, NULL, 0))
                goto done;
        }
        for (int64_t c = 0; c < size; c++) {
            int64_t at = sorted[c], length = lens[c];
            double estimate = dist[c] / (double)(n > length ? n : length);
            push(pending, &waiting,
                 (entry){estimate, length, rows ? rows[at] : at, at});
        }
        verified += size;
    }
    tally[0] = picked;
    tally[1] = verified;
    status = 0;
done:
    free(rest);
    free(order);
    free(spare);
    free(pending);
    free(sorted);
    free(lens);
    free(rowp);
    free(slots);
    free(dist);
    free(padded);
    return status;
}
