/*
 * Native batched DTW: the contract of the NumPy anti-diagonal kernel in
 * dtw.py (_dtw_batch_numpy), bit for bit.  Loaded by native.py with
 * ctypes; the Python side validates every input, so nothing is checked
 * here.
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

/*
 * DTW from x to g candidates, the rows of a (g, width) matrix of which
 * row c is read to lens[c] (to m when lens is NULL; m <= width).  x is one
 * query of length n (x_stride 0) or, paired, a (g, n) stack (x_stride n).
 * window < 0 is unconstrained; otherwise candidate c's band is
 * max(window, |n - m_c|).  Writes dist[g]; with TRACK_LENGTH plens[g];
 * with TRACK_PATH plens[g] and each path's cells into rows of path_i and
 * path_j (path_width >= n + m - 1 wide, prefilled by the caller).
 * Returns 0, or -1 when scratch cannot be allocated.
 */
int dtw_batch(const double *x, int64_t x_stride, const double *rows,
              int64_t width, const int64_t *lens, int64_t g, int64_t n,
              int64_t m, int64_t window, int32_t squared, int32_t track,
              double *dist, int64_t *plens, int64_t *path_i, int64_t *path_j,
              int64_t path_width)
{
    int64_t cap = g < BLOCK ? g : BLOCK;
    int64_t row = m * cap;
    int lengths = track == TRACK_LENGTH;
    double *scratch = malloc(sizeof(double) * (n * cap + 3 * row + 3 * cap));
    double *lens_scratch = lengths ? calloc(2 * row, sizeof(double)) : NULL;
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
            for (int64_t j = lo; j <= hi; j++) {
                const double *xi = xs + i * nb, *yj = cols + j * nb;
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
