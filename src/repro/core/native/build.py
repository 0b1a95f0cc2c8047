"""Build-and-cache machinery for the compiled kernels.

The C translation of :mod:`repro.core.runtime.rounds`, of the paper's
asynchronous maximal-progress sweep
(the asynchronous loop of ``repro.core.reference``) and of the addability
oracle's loops (:class:`repro.chordality.maximality.AddabilityOracle`)
lives here as a source string and is compiled **once** per (source, interpreter) digest
via cffi's out-of-line API mode into a cached ``.so`` under
``~/.cache/repro-native`` (override with :data:`CACHE_ENV`).  Later
imports just ``dlopen`` the cached artifact — no compiler needed after
the first build, and CI caches the directory between steps.

Resolution never raises: :func:`resolve` returns a
:class:`NativeStatus` whose ``detail`` names exactly *why* the backend
is unavailable — the three distinct failure modes callers report are

* ``cffi is not installed`` — the optional build dependency is absent;
* ``no C compiler found`` — nothing to build with (the tier-1 fallback
  path on toolchain-less hosts);
* ``build failed: ...`` — a toolchain exists but compilation broke.

plus the explicit opt-out ``REPRO_NATIVE=0`` (how the test suite forces
the fallback branch on a host that *does* have a compiler).

Why C at all: the round bodies are memory-bound pointer-chasing loops
(per-pair binary searches over sorted arena runs), the shape where a
compiled inner loop beats further NumPy batching.  The sweep is a scalar
loop with nothing to batch, so only a compiled loop speeds it up.  The C functions take
raw pointers into the *same* NumPy buffers the interpreted code uses
(a :class:`~repro.core.runtime.state.LocalState`'s arrays, the addability
oracle's), zero copies, handed over by
:func:`repro.core.native.bodies.pointers` — and cffi releases the GIL
around every call, so a thread team running them is genuinely parallel.
"""

from __future__ import annotations

import importlib.util
import io
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

__all__ = ["NativeStatus", "resolve", "DISABLE_ENV", "CACHE_ENV"]

#: Set to 0/off/no/false to force the NumPy fallback (tested branch).
DISABLE_ENV = "REPRO_NATIVE"

#: Overrides the compiled-artifact cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: Declarations cffi exposes as ``lib.*``.
CDEF = """
void repro_sync_slice(
    int64_t start, int64_t stop,
    const int64_t *active, const int64_t *parents,
    int64_t *arena, const int64_t *offsets,
    const int64_t *snapshot, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp, uint8_t *ok);
int64_t repro_sweep(
    int64_t n, int64_t limit,
    int64_t *arena, const int64_t *offsets, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp,
    int64_t *head, int64_t *tail, int64_t *next,
    int64_t *queue, int64_t *next_queue, int64_t *mark,
    int64_t *qsizes, int64_t *edges, int64_t *iterations);
void repro_oracle_add(
    int64_t k, const int64_t *eu, const int64_t *ev,
    const int64_t *start, int64_t *fill, int64_t *nbr,
    int64_t *uf, int64_t *stamp, int64_t *st);
int64_t repro_oracle_greedy(
    int64_t k, const int64_t *cu, const int64_t *cv, int64_t max_passes,
    int64_t n, const int64_t *start, int64_t *fill, int64_t *nbr,
    int64_t *uf, int64_t *stamp, int64_t *seen, int64_t *near,
    int64_t *queue, int64_t *st,
    int64_t *alive, int64_t *tested_at, int64_t *accepted_pass);
int64_t repro_oracle_first(
    int64_t k, const int64_t *cu, const int64_t *cv, int64_t limit,
    int64_t n, const int64_t *start, const int64_t *fill, const int64_t *nbr,
    int64_t *uf, int64_t *seen, int64_t *near, int64_t *queue,
    int64_t *st, int64_t *out);
int64_t repro_completion_room(
    int64_t n, const int64_t *indptr, const void *indices, int64_t wide,
    int64_t k, const int64_t *rows, int64_t *capacity);
int64_t repro_completion_build(
    int64_t n, const int64_t *indptr, const void *indices, int64_t wide,
    int64_t k, const int64_t *rows,
    const int64_t *start, int64_t *fill, int64_t *nbr,
    int64_t *uf, int64_t *stamp, int64_t *st, int64_t *cu, int64_t *cv);
"""

#: The C translation of rounds.run_sync_slice.  Kept semantically
#: line-for-line with the NumPy kernel so the synchronous output is
#: bit-identical (same ok mask, same appends, same advances);
#: see repro/core/native/bodies.py for the equivalence argument.  The
#: asynchronous sweep serves the same turns as the asynchronous loop of
#: repro/core/reference.py, and the addability oracle's greedy and
#: certificate loops mirror the interpreted fallback in
#: repro/chordality/maximality.py.
SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* 1 iff every element of child[0:cw] occurs in parent[0:cv].  Both runs
   are sorted ascending (the ordered-chordal-set invariant), so each
   element is one binary search -- and because child is sorted too, each
   search resumes past the previous hit.  Membership here is exactly the
   searchsorted key probe of kernels.subset_mask restricted to block v
   (key(v,e) = v*n + e only collides inside v's block). */
static int repro_is_subset(const int64_t *child, int64_t cw,
                           const int64_t *parent, int64_t cv)
{
    int64_t lo = 0;
    for (int64_t i = 0; i < cw; i++) {
        int64_t x = child[i];
        int64_t hi = cv;
        while (lo < hi) {
            int64_t mid = lo + ((hi - lo) >> 1);
            if (parent[mid] < x) lo = mid + 1; else hi = mid;
        }
        if (lo >= cv || parent[lo] != x) return 0;
        lo++;
    }
    return 1;
}

/* One slice of one synchronous superstep: subset test against the
   barrier snapshot, append on accept, advance to the next parent.
   Active targets are distinct within a round, so no word is written by
   two slices and no atomics are needed (unique-writer discipline). */
void repro_sync_slice(
    int64_t start, int64_t stop,
    const int64_t *active, const int64_t *parents,
    int64_t *arena, const int64_t *offsets,
    const int64_t *snapshot, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp, uint8_t *ok)
{
    for (int64_t i = start; i < stop; i++) {
        int64_t w = active[i];
        int64_t v = parents[i];
        int64_t cw = snapshot[w];
        int acc = (cw <= snapshot[v]);
        if (acc && cw > 0)
            acc = repro_is_subset(arena + offsets[w], cw,
                                  arena + offsets[v], snapshot[v]);
        ok[i] = (uint8_t)acc;
        if (acc) {
            arena[offsets[w] + counts[w]] = v;
            counts[w] += 1;
        }
        int64_t c = cursor[w] + 1;
        cursor[w] = c;
        lp[w] = (c < lower[w]) ? indices[indptr[w] + c] : -1;
    }
}

/* ---- Maximal-progress sweep (reference.py's asynchronous loop) ---------
   children[v] is the linked list head[v] -> next[..] -> tail[v]; a vertex
   sits in at most one list, the one for its current lp.  mark[x] holds the
   iteration stamp under which x last joined the next queue. */

static int repro_cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static void repro_push_child(int64_t x, int64_t w,
                             int64_t *head, int64_t *tail, int64_t *next)
{
    next[w] = -1;
    if (head[x] < 0) head[x] = w; else next[tail[x]] = w;
    tail[x] = w;
}

/* Runs the sweep to convergence, starting with Algorithm 1's lines 2-10:
   empty chordal sets, fresh cursors, every vertex at its lowest parent.
   Turns run in ascending queue order; the parent's prefix is frozen once
   per turn (C[v] cannot change during its own turn, see reference.py).
   |Q1| per iteration goes to qsizes, which must hold limit + 1 entries.
   On convergence the edges are written as canonical (v, w) rows, v < w
   lexicographic -- one per arena slot, so arena_used rows always suffice
   -- by a counting sort of the arena on the parent.  Returns the number
   of edges, or -1 once more than `limit` iterations would run (the
   caller's ConvergenceError; qsizes then ends with the pending queue
   size).  *iterations receives the number of qsizes entries written. */
int64_t repro_sweep(
    int64_t n, int64_t limit,
    int64_t *arena, const int64_t *offsets, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp,
    int64_t *head, int64_t *tail, int64_t *next,
    int64_t *queue, int64_t *next_queue, int64_t *mark,
    int64_t *qsizes, int64_t *edges, int64_t *iterations)
{
    int64_t qn = 0, it = 0;
    for (int64_t v = 0; v < n; v++) {
        head[v] = -1;
        mark[v] = 0;
        counts[v] = 0;
        cursor[v] = 0;
        lp[v] = lower[v] ? indices[indptr[v]] : -1;
    }
    for (int64_t w = 0; w < n; w++) {
        int64_t x = lp[w];
        if (x < 0) continue;
        repro_push_child(x, w, head, tail, next);
        if (mark[x] != 1) { mark[x] = 1; queue[qn++] = x; }
    }
    qsort(queue, (size_t)qn, sizeof(int64_t), repro_cmp_i64);

    while (qn > 0) {
        qsizes[it++] = qn;
        if (it > limit) { *iterations = it; return -1; }
        int64_t nn = 0, stamp = it + 1;
        for (int64_t qi = 0; qi < qn; qi++) {
            int64_t v = queue[qi];
            int64_t cv = counts[v];
            const int64_t *pv = arena + offsets[v];
            int64_t bound = cv ? pv[cv - 1] : -1;
            int64_t w = head[v];
            while (w >= 0) {
                /* Line 15 with the cardinality and last-element filters. */
                int64_t cw = counts[w];
                int ok;
                if (cw > cv) ok = 0;
                else if (cw == 0) ok = 1;
                else {
                    const int64_t *pw = arena + offsets[w];
                    ok = pw[cw - 1] <= bound && repro_is_subset(pw, cw, pv, cv);
                }
                if (ok) {  /* lines 16-17 */
                    arena[offsets[w] + cw] = v;
                    counts[w] = cw + 1;
                }
                /* Lines 18-20: advance to the next parent (x > v, so w
                   never rejoins the list being swept). */
                int64_t c = cursor[w] + 1;
                cursor[w] = c;
                int64_t x = (c < lower[w]) ? indices[indptr[w] + c] : -1;
                lp[w] = x;
                int64_t after = next[w];
                if (x >= 0) {
                    repro_push_child(x, w, head, tail, next);
                    if (mark[x] != stamp) { mark[x] = stamp; next_queue[nn++] = x; }
                }
                w = after;
            }
            head[v] = -1;
        }
        /* Sort ascending.  A dense next queue is rebuilt by one scan of
           the marks, which visits ids in order; a sparse one is sorted. */
        if (nn * 8 > n) {
            nn = 0;
            for (int64_t x = 0; x < n; x++)
                if (mark[x] == stamp) next_queue[nn++] = x;
        } else {
            qsort(next_queue, (size_t)nn, sizeof(int64_t), repro_cmp_i64);
        }
        int64_t *swap = queue; queue = next_queue; next_queue = swap;
        qn = nn;
    }
    *iterations = it;
    /* Row slots per parent (mark, now free), then the children in
       ascending order into their parents' slots. */
    int64_t *slot = mark, ne = 0;
    for (int64_t v = 0; v < n; v++) slot[v] = 0;
    for (int64_t w = 0; w < n; w++)
        for (int64_t j = 0; j < counts[w]; j++) slot[arena[offsets[w] + j]]++;
    for (int64_t v = 0; v < n; v++) { int64_t c = slot[v]; slot[v] = ne; ne += c; }
    for (int64_t w = 0; w < n; w++)
        for (int64_t j = 0; j < counts[w]; j++) {
            int64_t r = slot[arena[offsets[w] + j]]++;
            edges[2 * r] = arena[offsets[w] + j];
            edges[2 * r + 1] = w;
        }
    return ne;
}

/* ---- Addability oracle (repro.chordality.maximality.AddabilityOracle) --
   H's adjacency of v is nbr[start[v] : start[v] + fill[v]]; uf is a
   union-find over H's components, stamp[v] the version at which v last
   gained an edge; st = {version, epoch}.  seen/near hold epoch stamps, so
   no test ever clears them. */

static int64_t repro_find(int64_t *uf, int64_t x)
{
    while (uf[x] != x) {
        uf[x] = uf[uf[x]];  /* path halving */
        x = uf[x];
    }
    return x;
}

/* Add the H edge uv: two slot writes, a union, two endpoint stamps. */
static void repro_link(int64_t u, int64_t v,
                       const int64_t *start, int64_t *fill, int64_t *nbr,
                       int64_t *uf, int64_t *stamp, int64_t *st)
{
    nbr[start[u] + fill[u]++] = v;
    nbr[start[v] + fill[v]++] = u;
    int64_t ru = repro_find(uf, u), rv = repro_find(uf, v);
    if (ru != rv) uf[rv] = ru;
    stamp[u] = stamp[v] = ++st[0];
}

/* 1 iff u and v are disconnected in H - C, C = N(u) & N(v), for a non-edge
   uv whose endpoints share a component (the caller's union-find answers the
   other case).  The common-neighbour scan seeds two searches: side U
   starts from N(u) - C, side V from N(v) - C, and C belongs to neither.
   A vertex of side U or of C has seen == e; one of side V or of C has
   near == e (N(v) is pre-marked e - 1 until it is seeded).  No common
   neighbour: nothing is removed, so the shared component connects u and
   v.  *common holds |C| of the last failed search of this pair (0 before
   any); the same count means the same ban set, since neighbourhoods only
   grow, so the path that failed it still exists: 0 with no search.
   Otherwise the side with less adjacency queued (pu, pv) expands one
   vertex, and again, until the sides meet (0) or one runs dry (1); every
   queued vertex has an edge, so a side is dry when it has none queued.
   Side U fills queue from the front and side V from the back; they never
   share a vertex, so n words hold both. */
static int repro_addable(int64_t u, int64_t v, int64_t n,
                         const int64_t *start, const int64_t *fill,
                         const int64_t *nbr, int64_t *seen, int64_t *near,
                         int64_t *queue, int64_t *st, int64_t *common)
{
    int64_t e = (st[1] += 2);
    const int64_t *nu = nbr + start[u], *nv = nbr + start[v];
    int64_t ut = 0, vt = n, c = 0, pu = 0, pv = 0;
    for (int64_t i = 0; i < fill[v]; i++) near[nv[i]] = e - 1;
    seen[u] = e;
    near[v] = e;
    for (int64_t i = 0; i < fill[u]; i++) {
        int64_t y = nu[i];
        if (seen[y] == e) continue;
        seen[y] = e;
        if (near[y] == e - 1) { near[y] = e; c++; }
        else { queue[ut++] = y; pu += fill[y]; }
    }
    if (c == 0 || c == *common) { *common = c; return 0; }
    *common = c;
    for (int64_t i = 0; i < fill[v]; i++) {
        int64_t y = nv[i];
        if (near[y] != e - 1) continue;
        near[y] = e;
        queue[--vt] = y;
        pv += fill[y];
    }
    int64_t uh = 0, vh = n;
    for (;;) {
        if (pu <= pv) {
            if (uh == ut) return 1;
            int64_t x = queue[uh++];
            const int64_t *nx = nbr + start[x];
            pu -= fill[x];
            for (int64_t j = 0; j < fill[x]; j++) {
                int64_t y = nx[j];
                if (seen[y] == e) continue;
                if (near[y] == e) return 0;  /* the sides meet: a path avoids C */
                seen[y] = e;
                queue[ut++] = y;
                pu += fill[y];
            }
        } else {
            if (vh == vt) return 1;
            int64_t x = queue[--vh];
            const int64_t *nx = nbr + start[x];
            pv -= fill[x];
            for (int64_t j = 0; j < fill[x]; j++) {
                int64_t y = nx[j];
                if (near[y] == e) continue;
                if (seen[y] == e) return 0;
                near[y] = e;
                queue[--vt] = y;
                pv += fill[y];
            }
        }
    }
}

void repro_oracle_add(
    int64_t k, const int64_t *eu, const int64_t *ev,
    const int64_t *start, int64_t *fill, int64_t *nbr,
    int64_t *uf, int64_t *stamp, int64_t *st)
{
    for (int64_t i = 0; i < k; i++)
        repro_link(eu[i], ev[i], start, fill, nbr, uf, stamp, st);
}

/* The greedy completion: offer the candidates in order, pass after pass,
   until a pass admits nothing (or max_passes > 0 passes ran).  A rejected
   candidate is searched again only once one of its endpoints has gained
   an edge and its common-neighbour count has changed: H only gains edges,
   so an unchanged ban set keeps the path that rejected it.  While a
   candidate waits, its accepted_pass slot holds that count (zeroed on
   exit).  accepted_pass[i] = the 1-based pass that admitted candidate i,
   else 0.  Returns the number of passes run. */
int64_t repro_oracle_greedy(
    int64_t k, const int64_t *cu, const int64_t *cv, int64_t max_passes,
    int64_t n, const int64_t *start, int64_t *fill, int64_t *nbr,
    int64_t *uf, int64_t *stamp, int64_t *seen, int64_t *near,
    int64_t *queue, int64_t *st,
    int64_t *alive, int64_t *tested_at, int64_t *accepted_pass)
{
    int64_t pending = k, passes = 0;
    for (int64_t i = 0; i < k; i++) {
        alive[i] = i;
        tested_at[i] = -1;
        accepted_pass[i] = 0;
    }
    while (pending > 0 && (max_passes <= 0 || passes < max_passes)) {
        passes++;
        int64_t keep = 0;
        for (int64_t j = 0; j < pending; j++) {
            int64_t i = alive[j], u = cu[i], v = cv[i];
            int ok;
            if (repro_find(uf, u) != repro_find(uf, v)) ok = 1;
            else if (tested_at[i] >= stamp[u] && tested_at[i] >= stamp[v]) ok = 0;
            else {
                ok = repro_addable(u, v, n, start, fill, nbr, seen, near, queue,
                                   st, &accepted_pass[i]);
                if (!ok) tested_at[i] = st[0];
            }
            if (ok) {
                repro_link(u, v, start, fill, nbr, uf, stamp, st);
                accepted_pass[i] = passes;
            } else {
                alive[keep++] = i;
            }
        }
        if (keep == pending) break;
        pending = keep;
    }
    for (int64_t j = 0; j < pending; j++) accepted_pass[alive[j]] = 0;
    return passes;
}

/* Indices of the first `limit` addable candidates against a fixed H
   (limit <= 0: all of them).  Returns how many were written to out. */
int64_t repro_oracle_first(
    int64_t k, const int64_t *cu, const int64_t *cv, int64_t limit,
    int64_t n, const int64_t *start, const int64_t *fill, const int64_t *nbr,
    int64_t *uf, int64_t *seen, int64_t *near, int64_t *queue,
    int64_t *st, int64_t *out)
{
    int64_t found = 0;
    for (int64_t i = 0; i < k && (limit <= 0 || found < limit); i++) {
        int64_t u = cu[i], v = cv[i], common = 0;
        if (repro_find(uf, u) != repro_find(uf, v)
            || repro_addable(u, v, n, start, fill, nbr, seen, near, queue,
                             st, &common))
            out[found++] = i;
    }
    return found;
}

/* ---- Completion pass set-up (repro.core.maximalize) ---------------------
   G's rows are sorted; its indices are int64 when wide, else int32.  rows
   holds H's k edges as interleaved (u, v) pairs.  One merge of each
   vertex's run of rows with the upper part of its G row visits every row
   and every candidate: an edge of G that H lacks, in lexicographic order.
   With capacity, each of them adds one slot at both ends (so H's slots
   hold whatever the greedy admits, whatever the input); with cu/cv, the
   candidates are written there.  Returns the number of candidates, or -1
   when the rows are not canonical (u < v < n, strictly rising). */

#define REPRO_IDX(p) (wide ? ((const int64_t *)indices)[p] \
                           : (int64_t)((const int32_t *)indices)[p])

static int64_t repro_completion_walk(
    int64_t n, const int64_t *indptr, const void *indices, int64_t wide,
    int64_t k, const int64_t *rows, int64_t *capacity, int64_t *cu, int64_t *cv)
{
    int64_t r = 0, found = 0;
    for (int64_t u = 0; u < n; u++) {
        int64_t p = indptr[u], end = indptr[u + 1], last = u;
        while (p < end && REPRO_IDX(p) <= u) p++;
        for (int64_t more = 1; more; ) {
            int64_t v = n;  /* the end of G's row, after the last row */
            more = r < k && rows[2 * r] == u;
            if (more) {
                v = rows[2 * r + 1];
                if (v <= last || v >= n) return -1;
                last = v;
                r++;
            }
            for (; p < end && REPRO_IDX(p) < v; p++, found++) {
                int64_t x = REPRO_IDX(p);
                if (cu) { cu[found] = u; cv[found] = x; }
                else { capacity[u]++; capacity[x]++; }
            }
            if (more) {
                if (p < end && REPRO_IDX(p) == v) p++;
                if (capacity) { capacity[u]++; capacity[v]++; }
            }
        }
    }
    return r == k ? found : -1;
}

/* Adds to capacity (zeros on entry) the slots H may need at each vertex. */
int64_t repro_completion_room(
    int64_t n, const int64_t *indptr, const void *indices, int64_t wide,
    int64_t k, const int64_t *rows, int64_t *capacity)
{
    return repro_completion_walk(n, indptr, indices, wide, k, rows,
                                 capacity, NULL, NULL);
}

/* Links the canonical rows into the oracle (sized by
   repro_completion_room) and writes the candidates to cu/cv. */
int64_t repro_completion_build(
    int64_t n, const int64_t *indptr, const void *indices, int64_t wide,
    int64_t k, const int64_t *rows,
    const int64_t *start, int64_t *fill, int64_t *nbr,
    int64_t *uf, int64_t *stamp, int64_t *st, int64_t *cu, int64_t *cv)
{
    for (int64_t i = 0; i < k; i++)
        repro_link(rows[2 * i], rows[2 * i + 1], start, fill, nbr, uf, stamp, st);
    return repro_completion_walk(n, indptr, indices, wide, k, rows,
                                 NULL, cu, cv);
}
"""


@dataclass(frozen=True)
class NativeStatus:
    """Outcome of one backend resolution attempt.

    ``detail`` is human-readable and *specific*: which cached artifact
    was loaded, or exactly why the backend is unavailable (no cffi / no
    compiler / build failure / explicit disable) — the test suite's
    ``native`` marker reports it verbatim as the skip reason.
    """

    available: bool
    detail: str


def _digest() -> str:
    """Content hash keying the cached artifact: C source + interpreter.

    The 64-bit source hash that keys hash-based ``.pyc`` files, made for
    exactly this job (does a cached artifact match its source?).  Unlike
    :mod:`hashlib` it loads no OpenSSL, which would add ~3 MiB to every
    process that resolves the backend.
    """
    data = CDEF + SOURCE + sys.implementation.cache_tag
    return importlib.util.source_hash(data.encode()).hex()


def _module_name() -> str:
    return f"_repro_native_{_digest()}"


def _cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _find_cached(cache: Path, name: str) -> Path | None:
    if not cache.is_dir():
        return None
    hits = sorted(cache.glob(f"{name}*.so"))
    return hits[-1] if hits else None


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build(cache: Path, name: str) -> Path:
    """Compile the extension into ``cache`` and return the .so path.

    Builds in a per-pid scratch directory and publishes with an atomic
    rename, so concurrent first-builds (parallel test sessions) cannot
    observe each other's half-written artifacts.
    """
    import cffi

    cache.mkdir(parents=True, exist_ok=True)
    scratch = cache / f"build-{os.getpid()}"
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, SOURCE, extra_compile_args=["-O3"])
    noise = io.StringIO()  # distutils chatter; surfaced only on failure
    try:
        with redirect_stdout(noise), redirect_stderr(noise):
            built = Path(ffi.compile(tmpdir=str(scratch)))
        final = cache / built.name
        os.replace(built, final)
    except Exception as exc:
        tail = noise.getvalue().strip().splitlines()[-3:]
        suffix = f" [{' | '.join(tail)}]" if tail else ""
        raise RuntimeError(f"{exc}{suffix}") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return final


def _load(so_path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Memoised resolution: (status, extension module | None).
_resolved: tuple[NativeStatus, object | None] | None = None


def resolve(force: bool = False) -> tuple[NativeStatus, object | None]:
    """Resolve the native backend, building the extension if needed.

    Memoised after the first call (``force=True`` re-resolves, e.g.
    after the test suite flips :data:`DISABLE_ENV`).  Never raises: an
    unavailable backend is a ``NativeStatus(False, reason)``.
    """
    global _resolved
    if _resolved is None or force:
        _resolved = _resolve()
    return _resolved


def _resolve() -> tuple[NativeStatus, object | None]:
    flag = os.environ.get(DISABLE_ENV, "").strip().lower()
    if flag in ("0", "off", "no", "false"):
        return NativeStatus(False, f"disabled via {DISABLE_ENV}={flag}"), None
    try:
        import cffi  # noqa: F401 - probe for the optional build dep
    except ImportError:
        return NativeStatus(False, "cffi is not installed (pip install cffi)"), None
    name = _module_name()
    cache = _cache_dir()
    so_path = _find_cached(cache, name)
    built = False
    if so_path is None:
        compiler = _find_compiler()
        if compiler is None:
            return (
                NativeStatus(
                    False, "no C compiler found (looked for $CC, cc, gcc, clang)"
                ),
                None,
            )
        try:
            so_path = _build(cache, name)
        except Exception as exc:
            return NativeStatus(False, f"build failed: {exc}"), None
        built = True
    try:
        module = _load(so_path, name)
    except Exception as exc:
        return (
            NativeStatus(
                False,
                f"loading the cached extension failed: {exc} "
                f"(delete {so_path} to force a rebuild)",
            ),
            None,
        )
    verb = "built" if built else "cached"
    return NativeStatus(True, f"{verb} {so_path.name}"), module
