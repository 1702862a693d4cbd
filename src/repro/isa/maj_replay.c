/* Fault-free trace-chain replay: one call runs a chain of compiled
 * μProgram traces (see repro.isa.native).
 *
 * cells is the subarray's C-contiguous [rows, n_words] uint64 matrix,
 * vals a scratch buffer of at least the largest segment's value rows,
 * and stream the chain's [n_segments, n_words] packed stream block.
 * The int64 table holds the segments back to back, each as
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

void chain_replay(uint64_t *cells, uint64_t *vals, const uint64_t *stream,
                  const int64_t *table, int64_t n_segments, int64_t n_words)
{
    size_t row = (size_t)n_words * sizeof(uint64_t);
    int64_t s, i, w, n;
    for (s = 0; s < n_segments; s++) {
        /* 1. the host write of the segment's stream row */
        if (table[0] >= 0)
            memcpy(cells + table[0] * n_words, stream + s * n_words, row);
        table++;
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
        table += 2 * n;
    }
}
