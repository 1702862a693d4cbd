/* Native kernels of the query and fault-trial paths (see
 * repro.isa.native):
 *
 *   chain_replay    fault-free replay of a chain of compiled μProgram
 *                   traces;
 *   fault_replay    replay of a chain of compiled fault traces, its
 *                   fault draws taken from the model's bit generator;
 *   protected_batch one ECC-protected event batch, checks and retries
 *                   included;
 *   deal_waves      the deal of masked updates into broadcast waves;
 *   pack_waves      the wave images of a deal, from a packed mask table;
 *   johnson_decode  the read-out of every lane's Johnson counter.
 *
 * chain_replay: cells is the subarray's C-contiguous [rows, n_words]
 * uint64 matrix, vals a scratch buffer of at least the largest
 * segment's value rows, and stream the chain's [n_segments, n_words]
 * packed stream block.  The int64 table holds the segments back to
 * back, each as
 *
 *   stream_row                        -1: no host write
 *   n_in, in_rows[n_in]               slot i <- cells[in_rows[i]]
 *   n_mirror, mirror_base             vals[mirror_base + i] <- ~vals[i]
 *   n_nodes, (a, b, c, dst, mirror)   dst <- MAJ3(a, b, c); mirror <- ~dst
 *   n_out, out_rows[n_out], out_slots[n_out]
 *
 * Nodes come in dependence-level order, so every operand row is final
 * before it is read. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static void maj_row(const uint64_t *restrict a, const uint64_t *restrict b,
                    const uint64_t *restrict c, uint64_t *restrict d,
                    uint64_t *restrict e, int64_t n_words)
{
    int64_t w;
    if (e) {
        for (w = 0; w < n_words; w++) {
            uint64_t x = (a[w] & (b[w] | c[w])) | (b[w] & c[w]);
            d[w] = x;
            e[w] = ~x;
        }
    } else {
        for (w = 0; w < n_words; w++)
            d[w] = (a[w] & (b[w] | c[w])) | (b[w] & c[w]);
    }
}

/* One fault-free segment from its n_in slot onwards (the host write is
 * the caller's); returns the table past the segment. */
static const int64_t *replay_segment(uint64_t *cells, uint64_t *vals,
                                     const int64_t *table, int64_t n_words)
{
    size_t row = (size_t)n_words * sizeof(uint64_t);
    int64_t i, w, n;
    /* 2. gather the live inputs */
    n = *table++;
    for (i = 0; i < n; i++)
        memcpy(vals + i * n_words, cells + table[i] * n_words, row);
    table += n;
    /* 3. complements of the inputs read negated */
    n = table[0];
    for (i = 0; i < n; i++) {
        const uint64_t *src = vals + i * n_words;
        uint64_t *dst = vals + (table[1] + i) * n_words;
        for (w = 0; w < n_words; w++)
            dst[w] = ~src[w];
    }
    table += 2;
    /* 4. the node table */
    n = *table++;
    for (i = 0; i < n; i++, table += 5)
        maj_row(vals + table[0] * n_words, vals + table[1] * n_words,
                vals + table[2] * n_words, vals + table[3] * n_words,
                table[4] < 0 ? 0 : vals + table[4] * n_words, n_words);
    /* 5. scatter the final row bindings */
    n = *table++;
    for (i = 0; i < n; i++)
        memcpy(cells + table[i] * n_words,
               vals + table[n + i] * n_words, row);
    return table + 2 * n;
}

void chain_replay(uint64_t *cells, uint64_t *vals, const uint64_t *stream,
                  const int64_t *table, int64_t n_segments, int64_t n_words)
{
    size_t row = (size_t)n_words * sizeof(uint64_t);
    int64_t s;
    for (s = 0; s < n_segments; s++) {
        /* 1. the host write of the segment's stream row */
        if (table[0] >= 0)
            memcpy(cells + table[0] * n_words, stream + s * n_words, row);
        table = replay_segment(cells, vals, table + 1, n_words);
    }
}


/* ------------------------------------------------------------------ */
/* fault_replay: replay of a chain of compiled fault traces
 * (repro.isa.trace.CompiledFaultTrace) under an active fault model.
 *
 * The fault draws are taken here, from the fault model's own bit
 * generator: state and next_double are numpy's BitGenerator.ctypes
 * handles (state_address, next_double), and the caller holds the
 * generator's lock.  Before a segment's steps run, its n_draws rows
 * of n_cols uniforms are drawn row-major -- exactly the next_double
 * calls of Generator.random((n_draws, n_cols)), so the stream and the
 * generator's terminal state are the NumPy pre-pass's -- and each row
 * is thresholded at its rate (thresholds[n_draws] per segment, p_cim
 * or p_read) and packed: lane i flips when its uniform is below the
 * threshold, as bit i % 64 of word i / 64, with zero tail bits.  tmp
 * holds one zero row, then the packed rows of the largest segment's
 * draws.  The int64 table holds the segments back to back, each as
 *
 *   stream_row                        -1: no host write
 *   n_draws                           the segment's draw rows
 *   n_in, in_rows[n_in]               slot i <- cells[in_rows[i]]
 *   n_mirror, mirror_base             vals[mirror_base + i] <- ~vals[i]
 *   n_steps, (kind, a, b, c, dst, mirror, cim_row, read_row)[n_steps]
 *   n_out, out_rows[n_out], out_slots[n_out]
 *
 * with draw rows counted from the segment's first.  Steps come in op
 * order:
 *
 *   kind 0 (rd)  dst <- a ^ flips(read_row), a faulty plain read
 *   kind 1 (mx)  dst <- MAJ3(a, b, c), an exact multi-row sense
 *   kind 2 (mj)  dst <- MAJ3(a, b, c) ^ mask, with mask by mode
 *                0 (all)        flips(cim_row)
 *                1 (contested)  flips(cim_row) on contested columns
 *                2 (select)     contested ? flips(cim_row)
 *                                         : flips(read_row)
 *
 * where a column is contested when its three operands disagree, and
 * mirror >= 0 gets ~dst.  Every kind is one word loop, mask = r ^ (k &
 * (f ^ r)) with k the contested columns (all ones unless the mode
 * selects), f the step's flips and r the read-rate flips of select
 * (the zero row where a kind has none); rd reads MAJ3(a, a, a) = a.
 * Returns the number of injected flips, the popcount of every applied
 * mask (FaultModel.injected's increment).
 *
 * Build cost: every process builds this file at import, so the fault
 * kernels are compiled at -O1 (FAULT), as the fault walk was before;
 * most of their time goes to the generator's next_double calls, one
 * indirect call per lane of every draw row. */
#define FAULT __attribute__((optimize("O1")))

typedef double (*next_double_fn)(void *);

/* Draw, threshold and pack n_draws rows of n_cols lanes. */
static FAULT void draw_flips(uint64_t *flips, const double *thresholds,
                             int64_t n_draws, int64_t n_cols,
                             int64_t n_words, void *state,
                             next_double_fn next)
{
    int64_t r, w, b;
    for (r = 0; r < n_draws; r++) {
        const double p = thresholds[r];
        for (w = 0; w < n_words; w++) {
            int64_t lanes = n_cols - 64 * w < 64 ? n_cols - 64 * w : 64;
            uint64_t x = 0;
            for (b = 0; b < lanes; b++)
                x |= (uint64_t)(next(state) < p) << b;
            *flips++ = x;
        }
    }
}

/* One fault segment from its n_in slot onwards, on its packed draw
 * rows (the host write and the draws are the caller's); adds its flips
 * to *injected and returns the table past the segment. */
static FAULT const int64_t *fault_segment(
    uint64_t *cells, uint64_t *vals, const uint64_t *flips,
    const uint64_t *zero, const int64_t *table, int64_t mode,
    int64_t n_words, int64_t *injected)
{
    size_t row = (size_t)n_words * sizeof(uint64_t);
    int64_t count = 0, i, w, n;
    n = *table++;
    for (i = 0; i < n; i++)
        memcpy(vals + i * n_words, cells + table[i] * n_words, row);
    table += n;
    n = table[0];
    for (i = 0; i < n; i++) {
        const uint64_t *src = vals + i * n_words;
        uint64_t *dst = vals + (table[1] + i) * n_words;
        for (w = 0; w < n_words; w++)
            dst[w] = ~src[w];
    }
    table += 2;
    n = *table++;
    for (i = 0; i < n; i++, table += 8) {
        const int64_t kind = table[0];
        const uint64_t *a = vals + table[1] * n_words;
        const uint64_t *b = kind ? vals + table[2] * n_words : a;
        const uint64_t *c = kind ? vals + table[3] * n_words : a;
        const uint64_t *f = zero, *r = zero;
        const uint64_t all = kind != 2 || mode == 0 ? ~0ULL : 0;
        uint64_t *d = vals + table[4] * n_words;
        if (kind != 1)
            f = flips + (kind == 0 ? table[7] : table[6]) * n_words;
        if (kind == 2 && mode == 2)
            r = flips + table[7] * n_words;
        for (w = 0; w < n_words; w++) {
            uint64_t k = all | (a[w] ^ b[w]) | (a[w] ^ c[w]);
            uint64_t m = r[w] ^ (k & (f[w] ^ r[w]));
            d[w] = ((a[w] & (b[w] | c[w])) | (b[w] & c[w])) ^ m;
            count += __builtin_popcountll(m);
        }
        if (table[5] >= 0) {
            uint64_t *e = vals + table[5] * n_words;
            for (w = 0; w < n_words; w++)
                e[w] = ~d[w];
        }
    }
    n = *table++;
    for (i = 0; i < n; i++)
        memcpy(cells + table[i] * n_words,
               vals + table[n + i] * n_words, row);
    *injected += count;
    return table + 2 * n;
}

FAULT int64_t fault_replay(uint64_t *cells, uint64_t *vals, uint64_t *tmp,
                           const uint64_t *stream, const int64_t *table,
                           int64_t n_segments, const double *thresholds,
                           void *state, next_double_fn next, int64_t mode,
                           int64_t n_cols, int64_t n_words)
{
    size_t row = (size_t)n_words * sizeof(uint64_t);
    uint64_t *zero = tmp, *flips = tmp + n_words;
    int64_t injected = 0, s;
    memset(zero, 0, row);
    for (s = 0; s < n_segments; s++) {
        int64_t n_draws = table[1];
        if (table[0] >= 0)
            memcpy(cells + table[0] * n_words, stream + s * n_words, row);
        draw_flips(flips, thresholds, n_draws, n_cols, n_words, state, next);
        table = fault_segment(cells, vals, flips, zero, table + 2, mode,
                              n_words, &injected);
        thresholds += n_draws;
    }
    return injected;
}


/* ------------------------------------------------------------------ */
/* protected_batch: one ECC-protected event batch
 * (repro.engine.CountingEngine.execute_events with fr_checks > 0), the
 * per-block protocol of the engine's reference path in one call.
 *
 * batch holds
 *
 *   n_entries, n_units, fr_row
 *   at[n_entries]                     each entry's one-segment table
 *                                     (offset into batch)
 *   thr[n_entries]                    its first threshold in thresholds
 *   units[n_units][8]                 (kind, entry, p0 .. p5)
 *   the tables                        fault_replay's format when faulty,
 *                                     chain_replay's otherwise
 *
 * and the units run in order:
 *
 *   kind 0  run entry once
 *   kind 1  update block A: M <- cells[p1] (the mask, kept for block B),
 *           X <- M ^ (p3 ? ~cells[p2] : cells[p2]); FR-checked block
 *   kind 2  update block B: X <- cells[p1] ^ ~M; FR-checked block
 *   kind 3  update block C: checked as syndrome(cells[p2] ^ cells[p0]
 *           ^ cells[p1]) == 0, the disjoint OR against T2 ^ IR2
 *   kind 4  overflow block: X <- the host-predicted flags from
 *           old = cells[p1], theta = cells[p2], msb = cells[p3] and
 *           mask = cells[p4] (p5 bit 0: k < 0, bit 1: |k| > n_bits);
 *           checked as cells[p0] == X on the lanes
 *
 * where an FR check (kinds 1, 2) runs fr_checks times, the FR tail
 * (entry p0, read only when fr_checks > 1) recomputing FR between
 * checks, each passing when
 * syndrome(cells[fr_row] ^ X) == 0.  A syndrome is nonzero when some
 * word's lanes (tail) have an odd popcount under one of the code's
 * n_checks parity-check masks: by linearity the check bits of a ^ b
 * are the XOR of theirs, so this is CIMProtection's comparison of
 * predicted and actual check bits.  A checked block runs up to
 * max_retries times until its checks pass; every check counts, a
 * failing one as a detection and a failed attempt as a retry, and a
 * block that passes after a retry counts as corrected.  Fault draws
 * are taken per run, as fault_replay takes them.
 *
 * out receives status (0 done, 1 a block exhausted its retries), the
 * unit it stopped at, the injected flips, the ProtectionStats counts
 * (blocks, checks, detections, retries, corrected, exhausted), each
 * entry's runs, then each entry's last run (the run's number in the
 * batch, counting from 1; 0 for none).  tmp holds a zero row, M, X,
 * then the largest entry's packed draw rows. */
typedef struct {
    uint64_t *cells, *vals, *zero, *flips;
    const int64_t *batch, *at, *thr;
    const double *thresholds;
    int64_t faulty, mode, n_cols, n_words, injected;
    void *state;
    next_double_fn next;
    int64_t *runs, *last, n_runs;
} batch_run;

static FAULT void run_entry(batch_run *B, int64_t e)
{
    const int64_t *table = B->batch + B->at[e];
    B->runs[e]++;
    B->last[e] = ++B->n_runs;
    if (!B->faulty) {
        replay_segment(B->cells, B->vals, table + 1, B->n_words);
        return;
    }
    draw_flips(B->flips, B->thresholds + B->thr[e], table[1], B->n_cols,
               B->n_words, B->state, B->next);
    fault_segment(B->cells, B->vals, B->flips, B->zero, table + 2, B->mode,
                  B->n_words, &B->injected);
}

/* Whether a ^ b ^ c (c may be 0) has a nonzero syndrome on the lanes. */
static FAULT int syndrome(const uint64_t *a, const uint64_t *b,
                          const uint64_t *c, const uint64_t *tail,
                          const uint64_t *masks, int64_t n_checks,
                          int64_t n_words)
{
    int64_t w, j;
    for (w = 0; w < n_words; w++) {
        uint64_t v = (a[w] ^ b[w] ^ (c ? c[w] : 0)) & tail[w];
        if (v)
            for (j = 0; j < n_checks; j++)
                if (__builtin_popcountll(v & masks[j]) & 1)
                    return 1;
    }
    return 0;
}

FAULT int64_t protected_batch(uint64_t *cells, uint64_t *vals, uint64_t *tmp,
                              const int64_t *batch, const double *thresholds,
                              const uint64_t *masks, int64_t n_checks,
                              const uint64_t *tail, int64_t fr_checks,
                              int64_t max_retries, int64_t faulty,
                              int64_t mode, int64_t n_cols, int64_t n_words,
                              void *state, next_double_fn next, int64_t *out)
{
    const int64_t n_entries = batch[0], n_units = batch[1];
    const uint64_t *fr = cells + batch[2] * n_words;
    const int64_t *unit = batch + 3 + 2 * n_entries;
    uint64_t *m_row = tmp + n_words, *x_row = tmp + 2 * n_words;
    int64_t *stats = out + 3, u, w;
    batch_run B;
#define ROW(i) (cells + unit[2 + (i)] * n_words)
    B.cells = cells;
    B.vals = vals;
    B.zero = tmp;
    B.flips = tmp + 3 * n_words;
    B.batch = batch;
    B.at = batch + 3;
    B.thr = batch + 3 + n_entries;
    B.thresholds = thresholds;
    B.faulty = faulty;
    B.mode = mode;
    B.n_cols = n_cols;
    B.n_words = n_words;
    B.injected = 0;
    B.state = state;
    B.next = next;
    B.runs = out + 9;
    B.last = out + 9 + n_entries;
    B.n_runs = 0;
    memset(tmp, 0, (size_t)n_words * sizeof(uint64_t));
    memset(out, 0, (size_t)(9 + 2 * n_entries) * sizeof(int64_t));
    for (u = 0; u < n_units; u++, unit += 8) {
        const int64_t kind = unit[0];
        int64_t attempt, i, ok = 0;
        if (kind == 0) {
            run_entry(&B, unit[1]);
            continue;
        }
        if (kind == 1) {
            memcpy(m_row, ROW(1), (size_t)n_words * sizeof(uint64_t));
            for (w = 0; w < n_words; w++)
                x_row[w] = m_row[w] ^ (unit[5] ? ~ROW(2)[w] : ROW(2)[w]);
        } else if (kind == 2) {
            for (w = 0; w < n_words; w++)
                x_row[w] = ROW(1)[w] ^ ~m_row[w];
        } else if (kind == 4) {
            for (w = 0; w < n_words; w++) {
                uint64_t was = ROW(2)[w], now = ROW(3)[w], flag;
                if (unit[7] & 1) {
                    was = ~was;
                    now = ~now;
                }
                flag = unit[7] & 2 ? was | ~now : was & ~now;
                x_row[w] = ROW(1)[w] | (flag & ROW(4)[w]);
            }
        }
        stats[0]++;                                   /* blocks */
        for (attempt = 0; attempt < max_retries && !ok; attempt++) {
            run_entry(&B, unit[1]);
            ok = 1;
            for (i = 0; ok && i < (kind <= 2 ? fr_checks : 1); i++) {
                if (i)
                    run_entry(&B, unit[2]);          /* recompute FR */
                stats[1]++;                           /* checks */
                if (kind <= 2)
                    ok = !syndrome(fr, x_row, 0, tail, masks, n_checks,
                                   n_words);
                else if (kind == 3)
                    ok = !syndrome(ROW(2), ROW(0), ROW(1), tail, masks,
                                   n_checks, n_words);
                else
                    for (w = 0; w < n_words; w++)
                        if ((ROW(0)[w] ^ x_row[w]) & tail[w])
                            ok = 0;
            }
            if (!ok) {
                stats[2]++;                           /* detections */
                stats[3]++;                           /* retries */
            } else if (attempt) {
                stats[4]++;                           /* corrected */
            }
        }
        if (!ok) {
            stats[5]++;                               /* exhausted */
            out[0] = 1;
            break;
        }
    }
    out[1] = u;
    out[2] = B.injected;
    return out[0];
#undef ROW
}


/* ------------------------------------------------------------------ */
/* deal_waves: repro.engine.BankCluster.deal as a counting sort.
 *
 * buf holds 7 n + 1 int64s: the inputs values, rows and slots (n
 * each); then the outputs wave, bank and rows of every dealt update in
 * canonical order, the magnitude of every wave (at most n of them) and
 * the bound.  The canonical order -- magnitude descending, then slot,
 * then row, ties in input order -- is one count of every (magnitude,
 * slot) queue, an exclusive prefix sum over the queues and a stable
 * scatter: the count -> prefix -> scatter of an LSD radix sort.  Input
 * already ordered by (slot, row), as a query batch's np.nonzero is,
 * takes that one pass; other input takes a stable counting pass by row
 * first.
 *
 * Position p of a queue lands in bank slot * banks + p % banks of its
 * magnitude's (p / banks)-th wave, and a magnitude spans as many waves
 * as its deepest queue needs.  Returns the number of waves, or -1 (the
 * caller runs the NumPy deal) for banks < 1, a negative slot or row,
 * or count tables out of proportion to n. */
int64_t deal_waves(int64_t *buf, int64_t n, int64_t banks)
{
    const int64_t *val = buf, *row = buf + n, *slot = buf + 2 * n;
    int64_t *wave = buf + 3 * n, *bank = buf + 4 * n;
    int64_t *row_out = buf + 5 * n, *mags = buf + 6 * n;
    int64_t vmin, vmax, smax = 0, rmax = 0, limit, span, n_slots, n_keys;
    int64_t n_rows = 0, n_waves = 0, bound = 0, start = 0, i, k, s;
    int64_t *work, *queue, *fill, *first_wave, *order = 0;
    int in_order = 1;

    if (n < 1 || banks < 1)
        return -1;
    vmin = vmax = val[0];
    for (i = 0; i < n; i++) {
        if (slot[i] < 0 || row[i] < 0)
            return -1;
        if (val[i] < vmin) vmin = val[i];
        if (val[i] > vmax) vmax = val[i];
        if (slot[i] > smax) smax = slot[i];
        if (row[i] > rmax) rmax = row[i];
        if (i && (slot[i] < slot[i - 1]
                  || (slot[i] == slot[i - 1] && row[i] < row[i - 1])))
            in_order = 0;
    }
    limit = 4 * n + 4096;
    if ((uint64_t)vmax - (uint64_t)vmin >= (uint64_t)limit || smax >= limit
        || (!in_order && rmax >= limit))
        return -1;
    span = vmax - vmin + 1;
    n_slots = smax + 1;
    if (span > limit / n_slots)
        return -1;
    n_keys = span * n_slots;
    if (!in_order)
        n_rows = rmax + 1;
    /* queue[n_keys] starts, fill[n_keys] lengths, first_wave[span],
     * then the row pass's order[n] and counts[n_rows + 1] */
    work = calloc((size_t)(2 * n_keys + span
                           + (in_order ? 0 : n + n_rows + 1)),
                  sizeof(int64_t));
    if (!work)
        return -1;
    queue = work;
    fill = queue + n_keys;
    first_wave = fill + n_keys;
    if (!in_order) {
        int64_t *count = first_wave + span + n;
        order = first_wave + span;
        for (i = 0; i < n; i++)
            count[row[i] + 1]++;
        for (k = 0; k < n_rows; k++)
            count[k + 1] += count[k];
        for (i = 0; i < n; i++)
            order[count[row[i]]++] = i;
    }
    /* count every queue; magnitude index vmax - value puts the largest
     * magnitude first */
    for (i = 0; i < n; i++)
        fill[(vmax - val[i]) * n_slots + slot[i]]++;
    /* prefix: each queue's first position, each magnitude's waves */
    for (k = 0; k < span; k++) {
        int64_t deepest = 0, depth;
        for (s = 0; s < n_slots; s++) {
            int64_t key = k * n_slots + s;
            if (fill[key] > deepest)
                deepest = fill[key];
            queue[key] = start;
            start += fill[key];
            fill[key] = 0;
        }
        depth = deepest ? (deepest - 1) / banks + 1 : 0;
        first_wave[k] = n_waves;
        for (i = 0; i < depth; i++)
            mags[n_waves + i] = vmax - k;
        bound += (vmax - k) * depth;
        n_waves += depth;
    }
    /* stable scatter */
    for (i = 0; i < n; i++) {
        int64_t j = order ? order[i] : i;
        int64_t m = vmax - val[j], key = m * n_slots + slot[j];
        int64_t p = fill[key]++, at = queue[key] + p;
        wave[at] = first_wave[m] + p / banks;
        bank[at] = slot[j] * banks + p % banks;
        row_out[at] = row[j];
    }
    free(work);
    buf[7 * n] = bound;
    return n_waves;
}

/* Zero bits [at, at + width) of a packed row. */
static void clear_bits(uint64_t *dst, int64_t at, int64_t width)
{
    int64_t end = at + width;
    while (at < end) {
        int64_t sh = at & 63, take = 64 - sh;
        if (take > end - at)
            take = end - at;
        dst[at >> 6] &= ~((take == 64 ? ~0ULL : (1ULL << take) - 1) << sh);
        at += take;
    }
}

/* pack_waves: image rows lo .. hi - 1 of a deal's wave images.
 *
 * image is the [hi - lo, n_words] output, zeroed here first.  Update i
 * with wave[i] in [lo, hi) writes its mask row into block bank[i]
 * (lanes bank[i] * width onwards) of image row wave[i] - lo: row
 * rows[i] of the packed [n_table, (width + 63) / 64] table (tail bits
 * zero), or with no table the one-hot row setting lane rows[i].  A
 * block is overwritten, not merged, as repro.dram.wordline.pack_blocks
 * does.  Returns 0, or -1 (the caller runs the NumPy pack, which raises)
 * for a wave outside [0, n_total), a bank outside [0, n_banks) or a row
 * outside the table (one-hot: the block). */
int64_t pack_waves(uint64_t *image, int64_t n_words, int64_t lo, int64_t hi,
                   int64_t n_total, const int64_t *wave, const int64_t *bank,
                   const int64_t *rows, int64_t n, const uint64_t *table,
                   int64_t n_table, int64_t width, int64_t n_banks)
{
    int64_t tw = (width + 63) >> 6, i, j;
    for (i = 0; i < n; i++)
        if (wave[i] < 0 || wave[i] >= n_total || bank[i] < 0
            || bank[i] >= n_banks || rows[i] < 0
            || rows[i] >= (table ? n_table : width))
            return -1;
    memset(image, 0, (size_t)((hi - lo) * n_words) * sizeof(uint64_t));
    for (i = 0; i < n; i++) {
        uint64_t *dst;
        int64_t at, q, sh, end;
        const uint64_t *src;
        if (wave[i] < lo || wave[i] >= hi)
            continue;
        dst = image + (wave[i] - lo) * n_words;
        at = bank[i] * width;
        if (!table) {
            clear_bits(dst, at, width);
            dst[(at + rows[i]) >> 6] |= 1ULL << ((at + rows[i]) & 63);
            continue;
        }
        src = table + rows[i] * tw;
        q = at >> 6;
        sh = at & 63;
        if (sh == 0 && (width & 63) == 0) {
            memcpy(dst + q, src, (size_t)tw * sizeof(uint64_t));
            continue;
        }
        clear_bits(dst, at, width);
        end = (at + width + 63) >> 6;
        for (j = 0; j < tw; j++) {
            dst[q + j] |= src[j] << sh;
            if (sh && q + j + 1 < end)
                dst[q + j + 1] |= src[j] >> (64 - sh);
        }
    }
    return 0;
}

/* Byte k of spread[b] is bit k of b: eight lanes' bits as eight bytes,
 * the table np.unpackbits expands through. */
static uint64_t spread[256];

/* The decode's loops are byte-table lookups and eight-wide register
 * work; GCC 12's vectorizer turns them into slower shuffles (8192 lanes
 * of six radix-4 digits: ~38 µs vectorized, ~25 µs not, 2-vCPU Xeon). */
#define NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))

/* One 64-lane word of johnson_decode with Horner fields of `field`
 * bits (a constant in each expansion, so the loops over sets and bytes
 * unroll into registers).  Returns a johnson_decode status. */
static inline NO_VECTORIZE int64_t decode_word(
    const uint64_t *words, int64_t n_words, int64_t n, int64_t nd,
    int64_t w, int64_t count, int64_t strict, int64_t *out, const int field)
{
    const int sets = field / 8;
    const uint64_t mask = field == 16 ? 0x00FF00FF00FF00FFULL
                        : field == 32 ? 0x000000FF000000FFULL : 0xFFULL;
    const uint64_t field_max = field == 64 ? ~0ULL : (1ULL << field) - 1;
    const uint64_t radix = 2 * (uint64_t)n;
    const uint64_t *word = words + w, *onext = word + nd * n * n_words;
    uint64_t tail = count == 64 ? ~0ULL : (1ULL << count) - 1;
    uint64_t top = onext[(nd - 1) * n_words] & tail;
    uint64_t tot[8][8], acc[8];
    int64_t d, i;
    int j, s, f;

    if (strict && top)
        return 2;
    for (j = 0; j < 8; j++)
        for (s = 0; s < sets; s++)
            tot[s][j] = (spread[(top >> (8 * j)) & 255] >> (8 * s)) & mask;
    for (d = nd - 1; d >= 0; d--) {
        const uint64_t *bits = word + d * n * n_words;
        uint64_t any = 0, wrap, flag, prev = 0;
        for (i = 0; i < n; i++)
            any |= bits[i * n_words];
        wrap = ~bits[0] & any;
        flag = d ? onext[(d - 1) * n_words] & tail : 0;
        for (j = 0; j < 8; j++)
            acc[j] = (uint64_t)n * spread[(wrap >> (8 * j)) & 255];
        if (flag)        /* surviving flags: faulty runs only */
            for (j = 0; j < 8; j++)
                acc[j] += spread[(flag >> (8 * j)) & 255];
        for (i = 0; i < n; i++) {
            uint64_t x = bits[i * n_words] ^ wrap;
            /* valid: the XORed bits are a run of ones from the LSB */
            if (strict && n > 2 && i && (~prev & x & tail))
                return 1;
            prev = x;
            for (j = 0; j < 8; j++)
                acc[j] += spread[(x >> (8 * j)) & 255];
        }
        for (s = 0; s < sets; s++)
            for (j = 0; j < 8; j++)
                tot[s][j] = tot[s][j] * radix + ((acc[j] >> (8 * s)) & mask);
    }
    /* set s, byte group j, field f holds lane 8 j + s + f * sets */
    for (s = 0; s < sets; s++)
        for (j = 0; j < 8; j++)
            for (f = 0; f < 64 / field; f++)
                if (8 * j + s + f * sets < count)
                    out[8 * j + s + f * sets] =
                        (int64_t)((tot[s][j] >> (field * f)) & field_max);
    return 0;
}

/* johnson_decode: every lane's counter value, as
 * repro.engine.CountingEngine.read_values decodes it.
 *
 * words is the packed [n_digits * (n_bits + 1), n_words] read-out
 * block: digit d's bit i in row d * n_bits + i, then the n_digits
 * O_next rows (CountingEngine's read-out order).  A digit whose LSB is
 * clear but which is not all-zero is wrapped, so per lane the digit is
 * popcount(bits ^ wrap) + n_bits * wrap, plus the O_next flag of the
 * digit below; a top-digit flag is one unit of radix^n_digits, and
 * Horner's rule folds the digits.
 *
 * Both steps work on eight lanes per uint64.  A digit is at most
 * 2 n_bits + 1, so eight lanes' digits add up as bytes, one table
 * lookup per byte of each bit row.  A counter is below 4 radix^n_digits,
 * so Horner's rule runs on fields of 16, 32 or 64 bits, whichever holds
 * that: field width F takes F / 8 interleaved sets of 64 / F lanes
 * each, and one multiply-add advances a whole word of fields.
 *
 * Returns 0 with out[n_lanes] written, or nonzero and the caller runs
 * the NumPy decoder: 1 for an invalid Johnson state and 2 for a set
 * top flag (strict only; out is then partly written), -1 for digits
 * too wide for a byte. */
NO_VECTORIZE int64_t johnson_decode(const uint64_t *words, int64_t n_words,
                                    int64_t n_bits, int64_t n_digits,
                                    int64_t n_lanes, int64_t strict,
                                    int64_t *out)
{
    uint64_t bound = 4;
    int64_t w, d, i, j, status = 0;

    if (n_bits < 1 || 2 * n_bits + 1 > 255)
        return -1;
    for (d = 0; d < n_digits && bound <= 0xFFFFFFFFULL; d++)
        bound *= 2 * (uint64_t)n_bits;
    if (!spread[255])
        for (i = 0; i < 256; i++)
            for (spread[i] = 0, j = 0; j < 8; j++)
                spread[i] |= (uint64_t)((i >> j) & 1) << (8 * j);
    for (w = 0; !status && w * 64 < n_lanes; w++) {
        int64_t count = n_lanes - w * 64 < 64 ? n_lanes - w * 64 : 64;
        if (bound <= 0xFFFFULL)
            status = decode_word(words, n_words, n_bits, n_digits, w, count,
                                 strict, out + w * 64, 16);
        else if (bound <= 0xFFFFFFFFULL)
            status = decode_word(words, n_words, n_bits, n_digits, w, count,
                                 strict, out + w * 64, 32);
        else
            status = decode_word(words, n_words, n_bits, n_digits, w, count,
                                 strict, out + w * 64, 64);
    }
    return status;
}
