/**
 * @file
 * Tree pseudo-LRU replacement state, as used by the DTTLB and PTLB in
 * the paper ("Pseudo LRU in our implementation") and by the TLB
 * models.
 */

#ifndef PMODV_COMMON_PLRU_HH
#define PMODV_COMMON_PLRU_HH

#include <cstdint>
#include <vector>

namespace pmodv
{

/**
 * Tree-based pseudo-LRU over a fixed number of ways.
 *
 * Maintains ways-1 internal tree bits. touch() marks a way most
 * recently used; victim() follows the tree bits to the approximate
 * least-recently-used way. For non-power-of-two way counts the tree
 * is built over the next power of two and out-of-range victims are
 * redirected.
 *
 * The tree bits live in a small inline bit array so a TreePlru can be
 * stored by value — one per TLB set in a contiguous vector —
 * with no per-set heap allocation on the replay hot path.
 */
class TreePlru
{
  public:
    /** Largest supported way count (kMaxWays-1 inline tree bits). */
    static constexpr unsigned kMaxWays = 256;

    /**
     * Precomputed branchless form of touch(way): the tree bits a
     * touch writes are a pure function of the way, so the whole
     * root-to-leaf walk collapses to one masked word update when all
     * tree bits fit in a single 64-bit word (tree ways <= 64, i.e.
     * every set-associativity in the model). See makeTouchLut().
     */
    struct TouchOp
    {
        std::uint64_t mask = 0;  ///< Bits on the root-to-leaf path.
        std::uint64_t value = 0; ///< Their post-touch values.
    };

    explicit TreePlru(unsigned num_ways);

    /** Number of ways this tracker covers. */
    unsigned numWays() const { return numWays_; }

    /** Mark @p way as most-recently-used. */
    void touch(unsigned way);

    /**
     * Per-way TouchOps for a tracker of @p num_ways, or an empty
     * vector when the tree spills past one word and no branchless
     * form exists. Shared across all sets of a component (the LUT
     * depends only on the way count).
     */
    static std::vector<TouchOp> makeTouchLut(unsigned num_ways);

    /** Apply a precomputed TouchOp; equivalent to touch(way). */
    void touchMasked(const TouchOp &op)
    {
        bits_[0] = (bits_[0] & ~op.mask) | op.value;
    }

    /**
     * Precomputed victim() results indexed by the tree-bit word: the
     * whole root-to-leaf walk collapses to one table load. Only built
     * for small trees (<= 16 tree ways, i.e. <= 15 tree bits); check
     * valid() and fall back to victim() otherwise. Shared across all
     * sets of a component.
     */
    struct VictimLut
    {
        std::vector<std::uint8_t> table; ///< Victim way per bit pattern.
        std::uint64_t mask = 0;          ///< Tree-bit extraction mask.
        bool valid() const { return !table.empty(); }
    };

    static VictimLut makeVictimLut(unsigned num_ways);

    /** Table-driven victim(); @p lut must be for this way count. */
    unsigned victimMasked(const VictimLut &lut) const
    {
        return lut.table[bits_[0] & lut.mask];
    }

    /** Return the pseudo-least-recently-used way. */
    unsigned victim() const;

    /** Reset all history (all ways equally old). */
    void reset();

  private:
    bool bit(unsigned node) const
    {
        return (bits_[node >> 6] >> (node & 63)) & 1;
    }

    void setBit(unsigned node, bool value)
    {
        const std::uint64_t mask = std::uint64_t{1} << (node & 63);
        if (value)
            bits_[node >> 6] |= mask;
        else
            bits_[node >> 6] &= ~mask;
    }

    unsigned numWays_;
    unsigned treeWays_; ///< numWays_ rounded up to a power of two.
    std::uint64_t bits_[kMaxWays / 64] = {};
};

/**
 * True-LRU tracker over a fixed number of ways, used where exact
 * recency matters (and as a test oracle for TreePlru's behaviour on
 * adversarial patterns).
 */
class TrueLru
{
  public:
    explicit TrueLru(unsigned num_ways);

    unsigned numWays() const { return numWays_; }

    /** Mark @p way as most-recently-used. */
    void touch(unsigned way);

    /** Return the exact least-recently-used way. */
    unsigned victim() const;

    /** Reset all history to initial order. */
    void reset();

  private:
    unsigned numWays_;
    /** touchTime_[w] = logical time of last touch of way w. */
    std::vector<std::uint64_t> touchTime_;
    std::uint64_t clock_ = 0;
};

} // namespace pmodv

#endif // PMODV_COMMON_PLRU_HH
