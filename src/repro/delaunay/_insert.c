/*
 * The bulk build of DelaunayTriangulation (triangulation.py), compiled.
 *
 * The same Bowyer-Watson insert as the interpreted loop, step for step:
 * canonical rows in Hilbert-curve order, a visibility walk from the last
 * insert's triangle, the cavity of every triangle whose circumcircle
 * strictly contains the point (a ghost's: the open half-plane beyond its
 * hull edge, or the open edge itself), the boundary fanned to the new
 * vertex, and a chain of locations until the first point off their line.
 * The graph it emits is the interpreted build's, bit for bit.
 *
 * The predicates decide what repro.geometry.predicates decides: the float
 * filters are its expressions in its order (compile with
 * -ffp-contract=off and without -ffast-math), and where a filter is
 * unsure the caller's exact predicate (its rationals) is called back.  A
 * NaN from that call means it raised: the build stops there.
 *
 * No global state: every buffer is the caller's or local to one call, so
 * two threads may build at once.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
/* A stored row or triangle-slot id (tri, adj, mark, by_start, chain): both
 * stay below 2^31 because the caller keeps the rows within MAX_ROWS, so
 * 2 * rows slots fit.  Index arithmetic on them (3 * t, counters) is i64. */
typedef int32_t id32;
typedef double (*exact_fn)(const double *coordinates);

/* The caller's exact predicates, and whether one of them has failed. */
typedef struct {
    exact_fn orientation, incircle;
    int failed;
} exact_stage;

static double call_exact(exact_stage *e, exact_fn fn, const double *v) {
    double sign = fn(v);
    if (isnan(sign)) {
        e->failed = 1;
        return 0.0;
    }
    return sign;
}

#define GHOST (-1)
#define EPS 2.220446049250313e-16
#define MIN_NORMAL 2.2250738585072014e-308
#define DENORMAL_SAFE_DET 2e-323

static const double ORIENT_ERR_BOUND = (3.0 + 16.0 * EPS) * EPS;
static const double INCIRCLE_ERR_BOUND = (10.0 + 96.0 * EPS) * EPS;
static const int NEXT[3] = {1, 2, 0};
static const int PREV[3] = {2, 0, 1};

/* -- the predicates: repro.geometry.predicates, expression for expression */

static double orientation_sign(double ax, double ay, double bx, double by, double cx,
                               double cy, exact_stage *e) {
    double detleft = (ax - cx) * (by - cy);
    double detright = (ay - cy) * (bx - cx);
    double det = detleft - detright;
    double detsum;
    double v[6] = {ax, ay, bx, by, cx, cy};
    if (-MIN_NORMAL < detleft && detleft < MIN_NORMAL && -MIN_NORMAL < detright &&
        detright < MIN_NORMAL) {
        int left_exact_zero = ax == cx || by == cy;
        int right_exact_zero = ay == cy || bx == cx;
        if (!(left_exact_zero && right_exact_zero) && -DENORMAL_SAFE_DET <= det &&
            det <= DENORMAL_SAFE_DET)
            return call_exact(e, e->orientation, v);
    }
    if (detleft > 0.0) {
        if (detright <= 0.0) return det;
        detsum = detleft + detright;
    } else if (detleft < 0.0) {
        if (detright >= 0.0) return det;
        detsum = -detleft - detright;
    } else {
        return det;
    }
    if (fabs(det) >= ORIENT_ERR_BOUND * detsum) return det;
    return call_exact(e, e->orientation, v);
}

static double incircle_sign(double ax, double ay, double bx, double by, double cx, double cy,
                            double dx, double dy, exact_stage *e) {
    double adx = ax - dx, ady = ay - dy, bdx = bx - dx;
    double bdy = by - dy, cdx = cx - dx, cdy = cy - dy;
    double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy, alift = adx * adx + ady * ady;
    double cdxady = cdx * ady, adxcdy = adx * cdy, blift = bdx * bdx + bdy * bdy;
    double adxbdy = adx * bdy, bdxady = bdx * ady, clift = cdx * cdx + cdy * cdy;
    double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                 clift * (adxbdy - bdxady);
    double permanent = (fabs(bdxcdy) + fabs(cdxbdy)) * alift +
                       (fabs(cdxady) + fabs(adxcdy)) * blift +
                       (fabs(adxbdy) + fabs(bdxady)) * clift;
    if (fabs(det) >= INCIRCLE_ERR_BOUND * permanent) return det;
    double v[8] = {ax, ay, bx, by, cx, cy, dx, dy};
    return call_exact(e, e->incircle, v);
}

double repro_orientation(const double *v, exact_fn fallback) {
    exact_stage e = {fallback, NULL, 0};
    double sign = orientation_sign(v[0], v[1], v[2], v[3], v[4], v[5], &e);
    return e.failed ? NAN : sign;
}

double repro_incircle(const double *v, exact_fn fallback) {
    exact_stage e = {NULL, fallback, 0};
    double sign = incircle_sign(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], &e);
    return e.failed ? NAN : sign;
}

/* -- Hilbert keys: repro.engine.order.hilbert_keys at order 31 ------------- */

/* The curve's frame below a level is the plain one, swapped (x <-> y),
 * complemented (both coordinates mirrored) or both: state = swapped |
 * complemented << 1.  Row: state; column: the level's bits x << 1 | y. */
static const unsigned char HILBERT_DIGIT[4][4] = {
    {0, 1, 3, 2}, {0, 3, 1, 2}, {2, 3, 1, 0}, {2, 1, 3, 0}};
static const unsigned char HILBERT_NEXT[4][4] = {
    {1, 0, 3, 0}, {0, 2, 1, 1}, {2, 1, 2, 3}, {3, 3, 0, 2}};

void repro_hilbert_keys(i64 count, const double *xs, const double *ys, double min_x,
                        double min_y, double width, double height, i64 *keys) {
    const i64 side = (i64)1 << 31;
    for (i64 k = 0; k < count; k++) {
        double fx = (xs[k] - min_x) / width, fy = (ys[k] - min_y) / height;
        fx = fx < 0.0 ? 0.0 : (fx > 1.0 ? 1.0 : fx);
        fy = fy < 0.0 ? 0.0 : (fy > 1.0 ? 1.0 : fy);
        i64 xi = (i64)(fx * (double)side), yi = (i64)(fy * (double)side);
        if (xi > side - 1) xi = side - 1;
        if (yi > side - 1) yi = side - 1;
        i64 key = 0;
        int state = 0;
        for (int level = 30; level >= 0; level--) {
            int bits = (int)((xi >> level) & 1) << 1 | (int)((yi >> level) & 1);
            key = key << 2 | HILBERT_DIGIT[state][bits];
            state = HILBERT_NEXT[state][bits];
        }
        keys[k] = key;
    }
}

/* -- the build ------------------------------------------------------------ */

/* A growable buffer of i64, local to one build. */
typedef struct {
    i64 *data;
    i64 size, capacity;
} buffer;

static int reserve(buffer *b, i64 extra) {
    if (b->size + extra <= b->capacity) return 1;
    i64 capacity = b->capacity ? b->capacity : 64;
    while (capacity < b->size + extra) capacity *= 2;
    i64 *data = realloc(b->data, (size_t)capacity * sizeof(i64));
    if (!data) return 0;
    b->data = data;
    b->capacity = capacity;
    return 1;
}

typedef struct {
    const double *xs, *ys;
    id32 *tri, *adj, *mark, *by_start;
    i64 slots, capacity, last;
    exact_stage exact;
    buffer cavity, boundary, fan;
} build;

enum { BUILT = 0, WALK_FAILED = 1, NO_MEMORY = 2, NO_ROOM = 3, EXACT_FAILED = 4 };

static int is_ghost(const id32 *tri, i64 t) {
    return tri[3 * t] < 0 || tri[3 * t + 1] < 0 || tri[3 * t + 2] < 0;
}

/* DelaunayTriangulation._locate */
static int locate(build *b, double px, double py, i64 t, i64 *found) {
    const id32 *tri = b->tri, *adj = b->adj;
    const double *xs = b->xs, *ys = b->ys;
    i64 previous = -1;
    for (i64 steps = 0; steps < b->slots + 1; steps++) {
        i64 base = 3 * t, i = tri[base], j = tri[base + 1], k = tri[base + 2], step;
        double ax = xs[i], ay = ys[i], bx = xs[j], by = ys[j], cx = xs[k], cy = ys[k];
        i64 n0 = adj[base], n1 = adj[base + 1], n2 = adj[base + 2];
        if (n0 != previous && orientation_sign(bx, by, cx, cy, px, py, &b->exact) < 0.0)
            step = n0;
        else if (n1 != previous &&
                 orientation_sign(cx, cy, ax, ay, px, py, &b->exact) < 0.0)
            step = n1;
        else if (n2 != previous &&
                 orientation_sign(ax, ay, bx, by, px, py, &b->exact) < 0.0)
            step = n2;
        else {
            *found = t;
            return BUILT;
        }
        if (is_ghost(tri, step)) {
            *found = step; /* beyond the hull: the ghost conflicts */
            return BUILT;
        }
        previous = t;
        t = step;
    }
    return WALK_FAILED;
}

/* DelaunayTriangulation._ghost_conflict */
static int ghost_conflict(build *b, i64 a, i64 c1, i64 c2, double px, double py) {
    i64 u = a, w = c1;
    if (a < 0) {
        u = c1;
        w = c2;
    } else if (c1 < 0) {
        u = c2;
        w = a;
    }
    double ax = b->xs[u], ay = b->ys[u], bx = b->xs[w], by = b->ys[w];
    double turn = orientation_sign(ax, ay, bx, by, px, py, &b->exact);
    if (turn != 0.0) return turn > 0.0;
    if (ax != bx) return (ax < bx ? ax : bx) < px && px < (ax < bx ? bx : ax);
    return (ay < by ? ay : by) < py && py < (ay < by ? by : ay);
}

/* DelaunayTriangulation._cavity_insert, less the delta and the hint grid
 * (the bulk build keeps neither). */
static int cavity_insert(build *b, i64 vertex, i64 first) {
    id32 *tri = b->tri, *adj = b->adj, *mark = b->mark;
    const double *xs = b->xs, *ys = b->ys;
    double px = xs[vertex], py = ys[vertex];
    buffer *cavity = &b->cavity, *boundary = &b->boundary, *fan = &b->fan;
    cavity->size = boundary->size = fan->size = 0;
    if (!reserve(cavity, 1)) return NO_MEMORY;
    cavity->data[cavity->size++] = first;
    mark[first] = vertex;
    for (i64 at = 0; at < cavity->size; at++) {
        i64 base = 3 * cavity->data[at];
        for (int e = 0; e < 3; e++) {
            i64 neighbor = adj[base + e];
            if (mark[neighbor] == vertex) continue;
            i64 nb = 3 * neighbor, a = tri[nb], c1 = tri[nb + 1], c2 = tri[nb + 2];
            int hit = a >= 0 && c1 >= 0 && c2 >= 0
                          ? incircle_sign(xs[a], ys[a], xs[c1], ys[c1], xs[c2], ys[c2], px,
                                          py, &b->exact) > 0.0
                          : ghost_conflict(b, a, c1, c2, px, py);
            if (hit) {
                if (!reserve(cavity, 1)) return NO_MEMORY;
                cavity->data[cavity->size++] = neighbor;
                mark[neighbor] = vertex;
            }
        }
    }
    /* the boundary's directed edges u -> w, with the triangle outside */
    for (i64 at = 0; at < cavity->size; at++) {
        i64 base = 3 * cavity->data[at];
        for (int e = 0; e < 3; e++) {
            i64 neighbor = adj[base + e];
            if (mark[neighbor] == vertex) continue;
            if (!reserve(boundary, 3)) return NO_MEMORY;
            i64 *edge = boundary->data + boundary->size;
            edge[0] = tri[base + NEXT[e]];
            edge[1] = tri[base + PREV[e]];
            edge[2] = neighbor;
            boundary->size += 3;
        }
    }
    /* the fan, in the cavity's slots first */
    i64 finite = -1;
    if (!reserve(fan, boundary->size / 3)) return NO_MEMORY;
    for (i64 at = 0; at < boundary->size; at += 3) {
        i64 u = boundary->data[at], w = boundary->data[at + 1];
        i64 outside = boundary->data[at + 2], t;
        if (cavity->size) {
            t = cavity->data[--cavity->size];
        } else {
            if (b->slots == b->capacity) return NO_ROOM;
            t = b->slots++;
        }
        tri[3 * t] = vertex;
        tri[3 * t + 1] = u;
        tri[3 * t + 2] = w;
        adj[3 * t] = outside;
        b->by_start[u + 1] = t; /* GHOST is -1: every index shifts by one */
        fan->data[fan->size++] = t;
        i64 ob = 3 * outside; /* point the outside triangle back at the new one */
        for (int i = 0; i < 3; i++) {
            if (tri[ob + NEXT[i]] == w && tri[ob + PREV[i]] == u) {
                adj[ob + i] = t;
                break;
            }
        }
        if (u >= 0 && w >= 0) finite = t;
    }
    /* (vertex, u, w) meets the new triangle starting at w across (w, vertex);
     * that one meets this one across its (vertex, u') with u' = w */
    for (i64 at = 0; at < fan->size; at++) {
        i64 t = fan->data[at], following = b->by_start[tri[3 * t + 2] + 1];
        adj[3 * t + 1] = following;
        adj[3 * following + 2] = t;
    }
    b->last = finite;
    return BUILT;
}

static int location_before(const double *xs, const double *ys, i64 a, double x, double y) {
    return xs[a] < x || (xs[a] == x && ys[a] < y);
}

/* The first point off the chain's line: the triangles (s_j, s_j+1, apex)
 * and a ghost on each hull edge, which runs s_0 -> ... -> s_m-1 -> apex. */
static int fan_chain(build *b, const id32 *chain, i64 m, i64 apex, int reversed) {
    i64 faces = m - 1;
    id32 *tri = b->tri, *adj = b->adj;
    if (2 * m > b->capacity) return NO_ROOM;
    for (i64 j = 0; j < faces; j++) {
        i64 s = reversed ? chain[m - 1 - j] : chain[j];
        i64 s1 = reversed ? chain[m - 2 - j] : chain[j + 1];
        tri[3 * j] = s;
        tri[3 * j + 1] = s1;
        tri[3 * j + 2] = apex;
        adj[3 * j] = j + 1 < faces ? j + 1 : -1;
        adj[3 * j + 1] = j > 0 ? j - 1 : -1;
        adj[3 * j + 2] = faces + j; /* ghost of the hull edge s -> s1 */
    }
    adj[3 * (faces - 1)] = faces + m - 1; /* ghost of s_m-1 -> apex */
    adj[1] = faces + m;                   /* ghost of apex -> s_0 */
    i64 hull = m + 1;
    for (i64 i = 0; i < hull; i++) {
        i64 g = faces + i, p, q, face;
        if (i < m - 1) {
            p = tri[3 * i];
            q = tri[3 * i + 1];
            face = i;
        } else if (i == m - 1) {
            p = tri[3 * (faces - 1) + 1];
            q = apex;
            face = faces - 1;
        } else {
            p = apex;
            q = tri[0];
            face = 0;
        }
        tri[3 * g] = q;
        tri[3 * g + 1] = p;
        tri[3 * g + 2] = GHOST;
        adj[3 * g] = faces + (i + hull - 1) % hull; /* the ghost ending at p */
        adj[3 * g + 1] = faces + (i + 1) % hull;    /* the ghost starting at q */
        adj[3 * g + 2] = face;
    }
    b->slots = 2 * m;
    b->last = faces - 1;
    return BUILT;
}

/*
 * Insert the canonical rows ``order[0..count)`` in that order.  ``tri``
 * and ``adj`` hold ``capacity`` slots (2 * count - 2 is what a
 * triangulation of count locations takes), ``mark`` as many, ``by_start``
 * n + 1 entries and ``chain`` count, all of them id32.  ``out`` receives
 * the slots used (0 while every location is on one line), the chain's
 * length, and the number of directed edges the graph will have.
 */
int repro_build(i64 count, const i64 *order, const double *xs, const double *ys, id32 *tri,
                id32 *adj, i64 capacity, id32 *mark, id32 *by_start, id32 *chain,
                exact_fn orientation, exact_fn incircle, i64 *out) {
    build b = {xs, ys, tri, adj, mark, by_start, 0, capacity, -1, {orientation, incircle, 0},
               {0}, {0}, {0}};
    i64 m = 0;
    int status = BUILT;
    for (i64 s = 0; s < capacity; s++) mark[s] = -1;
    for (i64 k = 0; k < count && status == BUILT && !b.exact.failed; k++) {
        i64 vertex = order[k];
        double x = xs[vertex], y = ys[vertex];
        if (b.slots) {
            i64 found;
            status = locate(&b, x, y, b.last, &found);
            if (status == BUILT) status = cavity_insert(&b, vertex, found);
            continue;
        }
        if (m >= 2) {
            double turn = orientation_sign(xs[chain[0]], ys[chain[0]], xs[chain[m - 1]],
                                           ys[chain[m - 1]], x, y, &b.exact);
            if (turn != 0.0) {
                status = fan_chain(&b, chain, m, vertex, turn < 0.0);
                continue;
            }
        }
        i64 low = 0, high = m; /* bisect_left by location */
        while (low < high) {
            i64 mid = (low + high) / 2;
            if (location_before(xs, ys, chain[mid], x, y))
                low = mid + 1;
            else
                high = mid;
        }
        memmove(chain + low + 1, chain + low, (size_t)(m - low) * sizeof(id32));
        chain[low] = vertex;
        m++;
    }
    free(b.cavity.data);
    free(b.boundary.data);
    free(b.fan.data);
    if (b.exact.failed) status = EXACT_FAILED;
    i64 directed = 0;
    for (i64 t = 0; t < b.slots; t++)
        for (int e = 0; e < 3; e++)
            directed += tri[3 * t + NEXT[e]] >= 0 && tri[3 * t + PREV[e]] >= 0;
    out[0] = b.slots;
    out[1] = m;
    out[2] = b.slots ? directed : 2 * (m > 0 ? m - 1 : 0);
    return status;
}

static int ascending(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* The CSR rows of the canonical graph, in 32-bit row ids: ``indptr`` has
 * n + 1 entries, ``indices`` the directed-edge count repro_build reported
 * (the caller keeps n, and so that count, below 2^31). */
void repro_emit(i64 n, const id32 *tri, i64 slots, const id32 *chain, i64 m, int32_t *indptr,
                int32_t *indices) {
    memset(indptr, 0, (size_t)(n + 1) * sizeof(int32_t));
    if (slots) {
        for (i64 t = 0; t < slots; t++)
            for (int e = 0; e < 3; e++) {
                i64 u = tri[3 * t + NEXT[e]], w = tri[3 * t + PREV[e]];
                if (u >= 0 && w >= 0) indptr[u + 1]++;
            }
    } else {
        for (i64 i = 0; i + 1 < m; i++) {
            indptr[chain[i] + 1]++;
            indptr[chain[i + 1] + 1]++;
        }
    }
    for (i64 r = 0; r < n; r++) indptr[r + 1] += indptr[r];
    /* indptr[r] serves as row r's cursor, ending at row r + 1's start */
    if (slots) {
        for (i64 t = 0; t < slots; t++)
            for (int e = 0; e < 3; e++) {
                i64 u = tri[3 * t + NEXT[e]], w = tri[3 * t + PREV[e]];
                if (u >= 0 && w >= 0) indices[indptr[u]++] = (int32_t)w;
            }
    } else {
        for (i64 i = 0; i + 1 < m; i++) {
            indices[indptr[chain[i]]++] = (int32_t)chain[i + 1];
            indices[indptr[chain[i + 1]]++] = (int32_t)chain[i];
        }
    }
    for (i64 r = n; r > 0; r--) indptr[r] = indptr[r - 1];
    indptr[0] = 0;
    for (i64 r = 0; r < n; r++) {
        int32_t *row = indices + indptr[r];
        i64 length = indptr[r + 1] - indptr[r];
        if (length > 16) {
            qsort(row, (size_t)length, sizeof(int32_t), ascending);
            continue;
        }
        for (i64 i = 1; i < length; i++) {
            int32_t value = row[i];
            i64 j = i;
            for (; j > 0 && row[j - 1] > value; j--) row[j] = row[j - 1];
            row[j] = value;
        }
    }
}
