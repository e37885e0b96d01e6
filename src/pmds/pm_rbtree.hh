/**
 * @file
 * Persistent red-black tree for the RB-Tree microbenchmark
 * (Table 4): "insert/delete entries in a Red-Black tree".
 *
 * Classic CLRS algorithms executed through the failure-atomic
 * Transaction interface, with every pointer and colour stored in PM.
 * A real nil sentinel node (black) lives in PM, as in CLRS, so the
 * delete fixup can hang a parent off it.
 */

#ifndef PMEMSPEC_PMDS_PM_RBTREE_HH
#define PMEMSPEC_PMDS_PM_RBTREE_HH

#include <cstdint>
#include <optional>

#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** A failure-atomic red-black tree: u64 key -> u64 value. */
class PmRbTree
{
  public:
    explicit PmRbTree(runtime::PersistentMemory &pm);

    /** PM bytes the constructor and `inserts` inserts of absent keys
     *  allocate (allocBound() sums; erased nodes are not reused). */
    static std::size_t footprint(std::size_t inserts);

    /** Failure-atomic insert-or-update. */
    void insert(runtime::Transaction &tx, std::uint64_t key,
                std::uint64_t value);

    /** Failure-atomic removal. @return true if the key existed. */
    bool erase(runtime::Transaction &tx, std::uint64_t key);

    /** Transactional lookup. */
    std::optional<std::uint64_t> find(runtime::Transaction &tx,
                                      std::uint64_t key);

    /** Non-transactional lookup (checker / setup). */
    std::optional<std::uint64_t> lookup(std::uint64_t key) const;

    /** Number of keys (in-order walk). */
    std::size_t size() const;

    /**
     * Verify every red-black property on the volatile image:
     * BST order, red nodes have black children, equal black heights,
     * black root, consistent parent pointers.
     */
    bool checkInvariants() const;

  private:
    // Node layout:
    // [key:8][value:8][left:8][right:8][parent:8][color:8]
    static constexpr std::size_t nodeBytes = 48;
    static constexpr std::uint64_t red = 0;
    static constexpr std::uint64_t black = 1;

    static constexpr Addr offKey = 0;
    static constexpr Addr offVal = 8;
    static constexpr Addr offLeft = 16;
    static constexpr Addr offRight = 24;
    static constexpr Addr offParent = 32;
    static constexpr Addr offColor = 40;

    using Tx = runtime::Transaction;

    Addr rootAddr() const;

    // Transactional field access.
    Addr getRoot(Tx &tx) { return tx.readU64Dep(rootAddr()); }
    void setRoot(Tx &tx, Addr n) { tx.writeU64(rootAddr(), n); }
    std::uint64_t key(Tx &tx, Addr n) { return tx.readU64(n + offKey); }
    std::uint64_t val(Tx &tx, Addr n) { return tx.readU64(n + offVal); }
    Addr left(Tx &tx, Addr n) { return tx.readU64Dep(n + offLeft); }
    Addr right(Tx &tx, Addr n) { return tx.readU64Dep(n + offRight); }
    Addr parent(Tx &tx, Addr n)
    {
        return tx.readU64Dep(n + offParent);
    }
    std::uint64_t color(Tx &tx, Addr n)
    {
        return tx.readU64(n + offColor);
    }
    void setLeft(Tx &tx, Addr n, Addr v)
    {
        tx.writeU64(n + offLeft, v);
    }
    void setRight(Tx &tx, Addr n, Addr v)
    {
        tx.writeU64(n + offRight, v);
    }
    void setParent(Tx &tx, Addr n, Addr v)
    {
        tx.writeU64(n + offParent, v);
    }
    void setColor(Tx &tx, Addr n, std::uint64_t c)
    {
        tx.writeU64(n + offColor, c);
    }
    void setVal(Tx &tx, Addr n, std::uint64_t v)
    {
        tx.writeU64(n + offVal, v);
    }

    Addr allocNode(std::uint64_t k, std::uint64_t v);

    void rotateLeft(Tx &tx, Addr x);
    void rotateRight(Tx &tx, Addr x);
    void insertFixup(Tx &tx, Addr z);
    void transplant(Tx &tx, Addr u, Addr v);
    Addr minimum(Tx &tx, Addr n);
    void eraseFixup(Tx &tx, Addr x);

    // Checker helpers on the volatile image (non-transactional).
    bool checkNode(Addr n, std::uint64_t lo, std::uint64_t hi,
                   int &black_height) const;

    runtime::PersistentMemory &pm;
    Addr rootSlot; ///< PM slot holding the root pointer
    Addr nil;      ///< the black sentinel node
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_PM_RBTREE_HH
