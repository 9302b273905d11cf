/* The ADDS worker thread block's relax and push steps (paper §5.1, steps
 * 2 and 3) for one batch of k work items.
 *
 * relax_i32 / relax_f32 (they differ only in the weight type) read the
 * batch straight out of the bucket arena, run the stale check and one
 * atomicMin per out-edge of every live item in batch order, and write
 * the winners into the calling worker's win_buf.  band_groups runs when
 * that worker publishes: it reads the winners' distances as of then,
 * bands and clips them, and splits them stably into per-bucket groups.
 *
 * Items arrive as runs of the arena: runs[2r] is the address of a run's
 * first slot and runs[2r + 1] its slot count; a slot is two 64-bit words,
 * the vertex id and the float64 bits of its pushed distance.  A batch
 * spans several runs when its range crosses a storage block.
 *
 * The relax kernels return the number of winners, or a negative RELAX_*
 * code.  The batch is checked whole before its first store, so on any
 * code dist and pred are as they were:
 *   RELAX_BAD_ITEM     an item's vertex is outside [0, n); bad = its
 *                      batch position
 *   RELAX_BAD_OFFSETS  a live vertex's row leaves [0, m]; bad = the vertex
 *   RELAX_BAD_COLUMN   a column id is outside [0, n); bad = the edge id
 *   RELAX_LOG_FULL     the batch has more edges than the win log holds;
 *                      edges = the count, so the caller can grow the log
 *                      and call again
 *   RELAX_WIN_SHORT    the worker's win_buf is smaller than the batch's
 *                      edge count (band_groups: than its winner count)
 *
 * Winner rule: an edge wins when its candidate is strictly below the
 * stored distance; it stores the candidate and its source as predecessor,
 * and appends (vertex, candidate, batch position) to the win log.
 * Winners are listed in the order of their last winning entry, as
 * SimMemory.atomic_min_batch lists them.  A vertex's wins in one batch
 * store strictly decreasing candidates, so its last win is the one log
 * entry whose candidate is still the stored distance; a pass over the log
 * keeps exactly those, their vertices into win_buf.win and their batch
 * positions in place in log_pos.  Each edge entry wins at most once, so
 * the log, and win, need one slot per edge of the batch.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum {
    RELAX_BAD_ITEM = -1,
    RELAX_BAD_OFFSETS = -2,
    RELAX_BAD_COLUMN = -3,
    RELAX_LOG_FULL = -4,
    RELAX_WIN_SHORT = -5,
};

typedef struct {
    int64_t n, m;
    const int64_t *ro;   /* n + 1 row offsets */
    const int32_t *col;  /* m column ids */
    const void *w;       /* m weights, int32 or float32 */
    double *dist;        /* n */
    int64_t *pred;       /* n */
    int64_t *live_v;     /* >= k: the live items' vertices */
    double *live_d;      /* >= k: their pre-batch distances */
    int64_t log_cap;     /* slots of the three log arrays */
    int64_t *log_u;      /* winning vertex */
    double *log_d;       /* its candidate */
    int64_t *log_pos;    /* its batch position; then the winners' */
    int64_t n_buckets;
    int64_t n_live, edges, bad;  /* outputs */
} relax_ctx;

/* One worker's winners, kept from its relax until it publishes them. */
typedef struct {
    int64_t cap;         /* slots of win, grp_v and grp_d */
    int64_t *win;        /* the winners of the worker's last batch */
    int64_t *grp_v;      /* the winners, grouped by bucket */
    double *grp_d;       /* their distances as banded */
    int64_t *grp;        /* 2 + 3 * n_buckets: low and high clips,
                            (physical bucket, size) per group, then
                            n_buckets of scratch */
} win_buf;

#define RELAX_BODY(WT)                                                        \
    const int64_t n = ctx->n, m = ctx->m, *ro = ctx->ro;                      \
    const int32_t *col = ctx->col;                                            \
    const WT *w = (const WT *)ctx->w;                                         \
    double *dist = ctx->dist;                                                 \
    int64_t *pred = ctx->pred, *live_v = ctx->live_v;                         \
    double *live_d = ctx->live_d;                                             \
    int64_t *log_u = ctx->log_u, *log_pos = ctx->log_pos, *win = wb->win;     \
    double *log_d = ctx->log_d;                                               \
    int64_t n_live = 0, edges = 0, nlog = 0, nw = 0, j = 0;                   \
    /* stale check: live iff the pushed distance is still current */          \
    for (int64_t r = 0; r < nruns; r++) {                                     \
        const int64_t *item = (const int64_t *)(intptr_t)runs[2 * r];         \
        for (int64_t c = runs[2 * r + 1]; c > 0; c--, item += 2, j++) {       \
            int64_t v = item[0];                                              \
            double pushed;                                                    \
            memcpy(&pushed, item + 1, sizeof pushed);                         \
            if (v < 0 || v >= n) {                                            \
                ctx->bad = j;                                                 \
                return RELAX_BAD_ITEM;                                        \
            }                                                                 \
            if (pushed <= dist[v]) {                                          \
                live_v[n_live] = v;                                           \
                live_d[n_live++] = dist[v];                                   \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    for (j = 0; j < n_live; j++) {                                            \
        int64_t v = live_v[j], s = ro[v], e = ro[v + 1];                      \
        if (s < 0 || s > e || e > m) {                                        \
            ctx->bad = v;                                                     \
            return RELAX_BAD_OFFSETS;                                         \
        }                                                                     \
        for (int64_t i = s; i < e; i++) {                                     \
            if (col[i] < 0 || col[i] >= n) {                                  \
                ctx->bad = i;                                                 \
                return RELAX_BAD_COLUMN;                                      \
            }                                                                 \
        }                                                                     \
        edges += e - s;                                                       \
    }                                                                         \
    ctx->n_live = n_live;                                                     \
    ctx->edges = edges;                                                       \
    if (edges > ctx->log_cap)                                                 \
        return RELAX_LOG_FULL;                                                \
    if (edges > wb->cap)                                                      \
        return RELAX_WIN_SHORT;                                               \
    /* relax, in batch order, from the pre-batch distances */                 \
    int64_t pos = 0;                                                          \
    for (j = 0; j < n_live; j++) {                                            \
        int64_t v = live_v[j];                                                \
        double dv = live_d[j];                                                \
        for (int64_t i = ro[v]; i < ro[v + 1]; i++, pos++) {                  \
            int64_t u = col[i];                                               \
            double c = dv + (double)w[i];                                     \
            if (c < dist[u]) {                                                \
                dist[u] = c;                                                  \
                pred[u] = v;                                                  \
                log_u[nlog] = u;                                              \
                log_d[nlog] = c;                                              \
                log_pos[nlog++] = pos;                                        \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    for (j = 0; j < nlog; j++) {                                              \
        int64_t u = log_u[j];                                                 \
        if (dist[u] == log_d[j]) {                                            \
            win[nw] = u;                                                      \
            log_pos[nw++] = log_pos[j];                                       \
        }                                                                     \
    }                                                                         \
    return nw;

int64_t relax_i32(relax_ctx *ctx, win_buf *wb, int64_t nruns,
                  const int64_t *runs)
{
    RELAX_BODY(int32_t)
}

int64_t relax_f32(relax_ctx *ctx, win_buf *wb, int64_t nruns,
                  const int64_t *runs)
{
    RELAX_BODY(float)
}

/* CPython's float floor division (_float_div_mod in floatobject.c), so
 * the bands equal BucketQueue.rel_bands_list's bit for bit: fmod, the
 * sign correction, floor, and the round-up of a quotient that the
 * inexact (a - mod) / b left more than 0.5 below an integer. */
static double py_floordiv(double a, double b)
{
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    if (mod && (b < 0) != (mod < 0))
        div -= 1.0;
    if (!div)
        return copysign(0.0, a / b);
    double q = floor(div);
    if (div - q > 0.5)
        q += 1.0;
    return q;
}

/* Band the worker's nw winners at their current distances under the
 * window (base, delta, head) and split them into groups in ascending
 * physical bucket, each in winner order: the multisplit's counting pass,
 * then a stable scatter.  A band below the window clips to the head and
 * one above it (an infinite quotient included) to the tail; the clips of
 * this call are counted into grp[0] (low) and grp[1] (high).  The win
 * log is the scratch, so nw may not exceed it either.  Returns the
 * number of groups, or RELAX_WIN_SHORT. */
int64_t band_groups(relax_ctx *ctx, win_buf *wb, int64_t nw, double base,
                    double delta, int64_t head)
{
    const double *dist = ctx->dist;
    const int64_t nb = ctx->n_buckets, limit = nb - 1, *win = wb->win;
    int64_t *slot = ctx->log_u, *grp = wb->grp, *count = grp + 2 + 2 * nb;
    double *d = ctx->log_d;
    if (nw > wb->cap || nw > ctx->log_cap)
        return RELAX_WIN_SHORT;
    int64_t low = 0, high = 0;
    memset(count, 0, nb * sizeof *count);
    for (int64_t i = 0; i < nw; i++) {
        double q = py_floordiv((d[i] = dist[win[i]]) - base, delta);
        int64_t r;
        if (q < 0) {
            low++;
            r = 0;
        } else if (q <= (double)limit) {
            r = (int64_t)q;
        } else {  /* above the window, or NaN */
            high++;
            r = limit;
        }
        r += head;
        slot[i] = r >= nb ? r - nb : r;
        count[slot[i]]++;
    }
    grp[0] = low;
    grp[1] = high;
    /* count[s] becomes bucket s's offset into grp_v */
    int64_t ng = 0, off = 0;
    for (int64_t s = 0; s < nb; s++) {
        int64_t c = count[s];
        if (c) {
            grp[2 + 2 * ng] = s;
            grp[3 + 2 * ng++] = c;
        }
        count[s] = off;
        off += c;
    }
    for (int64_t i = 0; i < nw; i++) {
        int64_t at = count[slot[i]]++;
        wb->grp_v[at] = win[i];
        wb->grp_d[at] = d[i];
    }
    return ng;
}
