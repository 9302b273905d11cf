/* The ADDS worker thread block's relax step (paper §5.1, step 2) for one
 * batch of k work items: the stale check, one atomicMin per out-edge of
 * every live item in batch order, then the winners.
 *
 * relax_i32 / relax_f32 differ only in the weight type.  Both return the
 * number of winners, or a negative RELAX_* code.  The batch is checked
 * whole before its first store, so on any code dist and pred are as they
 * were:
 *   RELAX_BAD_ITEM     an item's vertex is outside [0, n); bad = its
 *                      batch position
 *   RELAX_BAD_OFFSETS  a live vertex's row leaves [0, m]; bad = the vertex
 *   RELAX_BAD_COLUMN   a column id is outside [0, n); bad = the edge id
 *   RELAX_LOG_FULL     the batch has more edges than the win log holds;
 *                      edges = the count, so the caller can grow the log
 *                      and call again
 *
 * Winner rule: an edge wins when its candidate is strictly below the
 * stored distance; it stores the candidate and its source as predecessor,
 * and appends (vertex, candidate, batch position) to the win log.
 * Winners are listed in the order of their last winning entry, as
 * SimMemory.atomic_min_batch lists them.  A vertex's wins in one batch
 * store strictly decreasing candidates, so its last win is the one log
 * entry whose candidate is still the stored distance; a pass over the log
 * keeps exactly those.  Each edge entry wins at most once, so the log
 * needs one slot per edge of the batch.
 */
#include <stdint.h>

enum {
    RELAX_BAD_ITEM = -1,
    RELAX_BAD_OFFSETS = -2,
    RELAX_BAD_COLUMN = -3,
    RELAX_LOG_FULL = -4,
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
    int64_t *log_u;      /* winning vertex; then the winners */
    double *log_d;       /* its candidate */
    int64_t *log_pos;    /* its batch position; then the winners' */
    int64_t n_live, edges, bad;  /* outputs */
} relax_ctx;

#define RELAX_BODY(WT)                                                        \
    const int64_t n = ctx->n, m = ctx->m, *ro = ctx->ro;                      \
    const int32_t *col = ctx->col;                                            \
    const WT *w = (const WT *)ctx->w;                                         \
    double *dist = ctx->dist;                                                 \
    int64_t *pred = ctx->pred, *live_v = ctx->live_v;                         \
    double *live_d = ctx->live_d;                                             \
    int64_t *log_u = ctx->log_u, *log_pos = ctx->log_pos;                     \
    double *log_d = ctx->log_d;                                               \
    int64_t n_live = 0, edges = 0, nlog = 0, nw = 0;                          \
    /* stale check: live iff the pushed distance is still current */          \
    for (int64_t j = 0; j < k; j++) {                                         \
        int64_t v = verts[j];                                                 \
        if (v < 0 || v >= n) {                                                \
            ctx->bad = j;                                                     \
            return RELAX_BAD_ITEM;                                            \
        }                                                                     \
        if (pushed[j] <= dist[v]) {                                           \
            live_v[n_live] = v;                                               \
            live_d[n_live++] = dist[v];                                       \
        }                                                                     \
    }                                                                         \
    for (int64_t j = 0; j < n_live; j++) {                                    \
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
    /* relax, in batch order, from the pre-batch distances */                 \
    int64_t pos = 0;                                                          \
    for (int64_t j = 0; j < n_live; j++) {                                    \
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
    for (int64_t j = 0; j < nlog; j++) {                                      \
        int64_t u = log_u[j];                                                 \
        if (dist[u] == log_d[j]) {                                            \
            log_u[nw] = u;                                                    \
            log_pos[nw++] = log_pos[j];                                       \
        }                                                                     \
    }                                                                         \
    return nw;

int64_t relax_i32(relax_ctx *ctx, int64_t k, const int64_t *verts,
                  const double *pushed)
{
    RELAX_BODY(int32_t)
}

int64_t relax_f32(relax_ctx *ctx, int64_t k, const int64_t *verts,
                  const double *pushed)
{
    RELAX_BODY(float)
}
