/* Fault-free MAJ3 trace replay: one call walks a compiled trace's node
 * table (see repro.isa.native).
 *
 * vals is a C-contiguous [rows, n_words] uint64 buffer; each node is
 * five int64s (a, b, c, dst, mirror): row dst <- MAJ3(a, b, c) and,
 * when mirror >= 0, row mirror <- ~dst.  Nodes come in dependence-
 * level order, so every operand row is final before it is read. */
#include <stdint.h>

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

void maj_replay(uint64_t *vals, const int64_t *nodes, int64_t n_nodes,
                int64_t n_words)
{
    int64_t i;
    for (i = 0; i < n_nodes; i++, nodes += 5)
        maj_row(vals + nodes[0] * n_words, vals + nodes[1] * n_words,
                vals + nodes[2] * n_words, vals + nodes[3] * n_words,
                nodes[4] < 0 ? 0 : vals + nodes[4] * n_words, n_words);
}
