/* The ADDS worker thread block's relax and push steps (paper §5.1, steps
 * 2 and 3) for one batch of k work items.
 *
 * relax_i32 / relax_f32 (they differ only in the weight type) read the
 * batch straight out of the bucket arena, run the stale check and one
 * atomicMin per out-edge of every live item in batch order, and write
 * the winners into the calling worker's win_buf.  publish_groups runs
 * when that worker publishes: it reads the winners' distances as of
 * then, bands and clips them, splits them stably into per-bucket groups
 * and runs the §5.2 writer path for each group (reserve, write through
 * the §5.3 block table, fence, WCC bumps) on the bucket queue's own
 * metadata, which queue_ctx points at.
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
 *                      edge count (publish_groups: than its winner count)
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
    PUBLISH_UNMAPPED = -6,
    PUBLISH_NO_WCC = -7,
    PUBLISH_WCC_FULL = -8,
    PUBLISH_WAIT = 1,
    PUBLISH_RESUME = -1,
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
    int64_t n_live, edges, bad;  /* outputs */
} relax_ctx;

/* The bucket queue's writer-side metadata, each in its one home on the
 * queue (BucketQueue.refresh_native re-points a bucket's entries after
 * they move). */
typedef struct {
    int64_t n_buckets, segment_size, slots_per_block, words_per_block;
    int64_t *resv;       /* n_buckets resv_ptrs */
    int64_t pool;        /* the arena's address: two words per slot */
    int64_t *bucket;     /* 4 per bucket: the address and length of its
                            WCC array, then of its block table (virtual
                            block -> pool block, -1 once retired) */
} queue_ctx;

/* One worker's winners, kept from its relax until it publishes them,
 * and the state of that publication across a capacity wait. */
typedef struct {
    int64_t cap;         /* slots of win, grp_v and grp_d */
    int64_t *win;        /* the winners of the worker's last batch */
    int64_t *grp_v;      /* the winners, grouped by bucket */
    double *grp_d;       /* their distances as banded */
    int64_t *grp;        /* 3 * n_buckets: (physical bucket, size) per
                            group, then n_buckets of scratch */
    int64_t ng, next;    /* groups, and the next one to publish */
    int64_t off;         /* that group's offset into grp_v */
    int64_t start;       /* its reservation's start, or -1 if unreserved */
    double push_cost;    /* the batch's push cost so far */
    /* the last call's counts, which the caller adds to the queue's */
    int64_t pushed, tail_pushed, atomics, fences, low_clips, high_clips;
    /* PUBLISH_WAIT: the bucket and the capacity it needs; on an error
     * code, the bucket and the range or the segment and its count */
    int64_t slot, need, bad, count;
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
 * one above it (an infinite quotient included) to the tail; the clips
 * are counted into wb.  The win log is the scratch, so nw may not exceed
 * it either.  Returns the number of groups, or RELAX_WIN_SHORT. */
static int64_t band_groups(relax_ctx *ctx, win_buf *wb, int64_t nb, int64_t nw,
                           double base, double delta, int64_t head)
{
    const double *dist = ctx->dist;
    const int64_t limit = nb - 1, *win = wb->win;
    int64_t *slot = ctx->log_u, *grp = wb->grp, *count = grp + 2 * nb;
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
    wb->low_clips = low;
    wb->high_clips = high;
    /* count[s] becomes bucket s's offset into grp_v */
    int64_t ng = 0, off = 0;
    for (int64_t s = 0; s < nb; s++) {
        int64_t c = count[s];
        if (c) {
            grp[2 * ng] = s;
            grp[2 * ng++ + 1] = c;
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

/* Publish the worker's winners: band and split them (nw >= 0 starts a
 * batch of nw winners; PUBLISH_RESUME continues the one in progress),
 * then, for each group in ascending physical bucket s, the §5.2 writer
 * path of BucketQueue.reserve and BucketQueue.publish:
 *   - bump resv[s] (one atomicAdd), counting a push into the tail band
 *     of the window as it stands at this call (head);
 *   - if the reservation is not backed by a block yet, stop right after
 *     it: wb keeps the group and its start, wb.slot and wb.need name the
 *     bucket and the capacity it needs, and PUBLISH_WAIT returns;
 *   - check the group's blocks and the WCC counts it would leave, so a
 *     failing group writes nothing; then write its slots into the arena
 *     through the block table, fence, and bump each touched segment's
 *     WCC (one atomicAdd each);
 *   - add atomic_cycles * (1 + segments) + 4 * k to wb.push_cost.
 * The counts of this call go into wb for the caller to add to the
 * queue's.  Returns 0 once every group is published, PUBLISH_WAIT, or a
 * negative code: RELAX_WIN_SHORT (see band_groups), PUBLISH_UNMAPPED (a
 * retired block inside the group's range: wb.bad and wb.need bound it),
 * PUBLISH_NO_WCC (the WCC array stops short of segment wb.bad) or
 * PUBLISH_WCC_FULL (segment wb.bad would count wb.count > N). */
int64_t publish_groups(relax_ctx *ctx, win_buf *wb, const queue_ctx *qc,
                       int64_t nw, double base, double delta, int64_t head,
                       double atomic_cycles)
{
    const int64_t nb = qc->n_buckets, ss = qc->segment_size;
    const int64_t spb = qc->slots_per_block, wpb = qc->words_per_block;
    const int64_t *grp = wb->grp;
    int64_t *resv = qc->resv;
    wb->pushed = wb->tail_pushed = wb->atomics = wb->fences = 0;
    wb->low_clips = wb->high_clips = 0;
    if (nw != PUBLISH_RESUME) {
        int64_t ng = band_groups(ctx, wb, nb, nw, base, delta, head);
        if (ng < 0)
            return ng;
        wb->ng = ng;
        wb->next = wb->off = 0;
        wb->start = -1;
        wb->push_cost = 0.0;
    }
    for (; wb->next < wb->ng; wb->next++) {
        const int64_t s = grp[2 * wb->next], k = grp[2 * wb->next + 1];
        int64_t start = wb->start;
        if (start < 0) {
            start = resv[s];
            resv[s] = start + k;
            wb->atomics++;
            wb->pushed += k;
            if (s - head + (s < head ? nb : 0) == nb - 1)
                wb->tail_pushed += k;
        }
        const int64_t *b = qc->bucket + 4 * s;
        int64_t *wcc = (int64_t *)(intptr_t)b[0];
        const int64_t *table = (const int64_t *)(intptr_t)b[2];
        const int64_t end = start + k;
        wb->slot = s;
        if (end > b[3] * spb) {
            wb->start = start;
            wb->need = end;
            return PUBLISH_WAIT;
        }
        wb->start = -1;
        for (int64_t vb = start / spb; vb <= (end - 1) / spb; vb++) {
            if (table[vb] < 0) {
                wb->bad = start;
                wb->need = end;
                return PUBLISH_UNMAPPED;
            }
        }
        const int64_t first = start / ss, last = (end - 1) / ss;
        if (last >= b[1]) {
            wb->bad = last;
            return PUBLISH_NO_WCC;
        }
        for (int64_t seg = first, lo = start; seg <= last; seg++) {
            int64_t hi = (seg + 1) * ss < end ? (seg + 1) * ss : end;
            if (wcc[seg] + hi - lo > ss) {
                wb->bad = seg;
                wb->count = wcc[seg] + hi - lo;
                return PUBLISH_WCC_FULL;
            }
            lo = hi;
        }
        const int64_t *v = wb->grp_v + wb->off;
        const double *d = wb->grp_d + wb->off;
        for (int64_t i = start; i < end; i++, v++, d++) {
            int64_t *word = (int64_t *)(intptr_t)qc->pool
                            + 2 * (table[i / spb] * wpb + i % spb);
            word[0] = *v;
            memcpy(word + 1, d, sizeof *d);
        }
        wb->fences++;  /* the items are written before the WCC bumps */
        for (int64_t seg = first, lo = start; seg <= last; seg++) {
            int64_t hi = (seg + 1) * ss < end ? (seg + 1) * ss : end;
            wcc[seg] += hi - lo;
            lo = hi;
        }
        wb->atomics += last - first + 1;
        wb->push_cost += atomic_cycles * (double)(last - first + 2) + 4.0 * (double)k;
        wb->off += k;
    }
    return 0;
}
