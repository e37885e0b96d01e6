#include "pm_rbtree.hh"

#include "common/logging.hh"

namespace pmemspec::pmds
{

PmRbTree::PmRbTree(runtime::PersistentMemory &pm_)
    : pm(pm_),
      rootSlot(pm_.alloc(8, 8)),
      nil(pm_.alloc(nodeBytes, 64))
{
    pm.writeU64(nil + offKey, 0);
    pm.writeU64(nil + offVal, 0);
    pm.writeU64(nil + offLeft, nil);
    pm.writeU64(nil + offRight, nil);
    pm.writeU64(nil + offParent, nil);
    pm.writeU64(nil + offColor, black);
    pm.writeU64(rootSlot, nil);
    pm.persistAll();
}

std::size_t
PmRbTree::footprint(std::size_t inserts)
{
    using runtime::PersistentMemory;
    return PersistentMemory::allocBound(8) +
           (1 + inserts) * PersistentMemory::allocBound(nodeBytes);
}

Addr
PmRbTree::rootAddr() const
{
    return rootSlot;
}

Addr
PmRbTree::allocNode(std::uint64_t k, std::uint64_t v)
{
    // Fresh nodes are unreachable until linked; initialise them
    // outside the undo log.
    Addr n = pm.alloc(nodeBytes, 64);
    pm.writeU64(n + offKey, k);
    pm.writeU64(n + offVal, v);
    pm.writeU64(n + offLeft, nil);
    pm.writeU64(n + offRight, nil);
    pm.writeU64(n + offParent, nil);
    pm.writeU64(n + offColor, red);
    return n;
}

void
PmRbTree::rotateLeft(Tx &tx, Addr x)
{
    Addr y = right(tx, x);
    setRight(tx, x, left(tx, y));
    if (left(tx, y) != nil)
        setParent(tx, left(tx, y), x);
    setParent(tx, y, parent(tx, x));
    if (parent(tx, x) == nil)
        setRoot(tx, y);
    else if (x == left(tx, parent(tx, x)))
        setLeft(tx, parent(tx, x), y);
    else
        setRight(tx, parent(tx, x), y);
    setLeft(tx, y, x);
    setParent(tx, x, y);
}

void
PmRbTree::rotateRight(Tx &tx, Addr x)
{
    Addr y = left(tx, x);
    setLeft(tx, x, right(tx, y));
    if (right(tx, y) != nil)
        setParent(tx, right(tx, y), x);
    setParent(tx, y, parent(tx, x));
    if (parent(tx, x) == nil)
        setRoot(tx, y);
    else if (x == right(tx, parent(tx, x)))
        setRight(tx, parent(tx, x), y);
    else
        setLeft(tx, parent(tx, x), y);
    setRight(tx, y, x);
    setParent(tx, x, y);
}

void
PmRbTree::insert(Tx &tx, std::uint64_t k, std::uint64_t v)
{
    Addr y = nil;
    Addr x = getRoot(tx);
    while (x != nil) {
        y = x;
        const std::uint64_t xk = key(tx, x);
        if (k == xk) {
            setVal(tx, x, v); // update in place
            return;
        }
        x = (k < xk) ? left(tx, x) : right(tx, x);
    }
    Addr z = allocNode(k, v);
    setParent(tx, z, y);
    if (y == nil)
        setRoot(tx, z);
    else if (k < key(tx, y))
        setLeft(tx, y, z);
    else
        setRight(tx, y, z);
    insertFixup(tx, z);
}

void
PmRbTree::insertFixup(Tx &tx, Addr z)
{
    while (color(tx, parent(tx, z)) == red) {
        Addr zp = parent(tx, z);
        Addr zpp = parent(tx, zp);
        if (zp == left(tx, zpp)) {
            Addr y = right(tx, zpp); // uncle
            if (color(tx, y) == red) {
                setColor(tx, zp, black);
                setColor(tx, y, black);
                setColor(tx, zpp, red);
                z = zpp;
            } else {
                if (z == right(tx, zp)) {
                    z = zp;
                    rotateLeft(tx, z);
                    zp = parent(tx, z);
                    zpp = parent(tx, zp);
                }
                setColor(tx, zp, black);
                setColor(tx, zpp, red);
                rotateRight(tx, zpp);
            }
        } else {
            Addr y = left(tx, zpp); // uncle
            if (color(tx, y) == red) {
                setColor(tx, zp, black);
                setColor(tx, y, black);
                setColor(tx, zpp, red);
                z = zpp;
            } else {
                if (z == left(tx, zp)) {
                    z = zp;
                    rotateRight(tx, z);
                    zp = parent(tx, z);
                    zpp = parent(tx, zp);
                }
                setColor(tx, zp, black);
                setColor(tx, zpp, red);
                rotateLeft(tx, zpp);
            }
        }
    }
    setColor(tx, getRoot(tx), black);
}

void
PmRbTree::transplant(Tx &tx, Addr u, Addr v)
{
    Addr up = parent(tx, u);
    if (up == nil)
        setRoot(tx, v);
    else if (u == left(tx, up))
        setLeft(tx, up, v);
    else
        setRight(tx, up, v);
    setParent(tx, v, up);
}

Addr
PmRbTree::minimum(Tx &tx, Addr n)
{
    while (left(tx, n) != nil)
        n = left(tx, n);
    return n;
}

bool
PmRbTree::erase(Tx &tx, std::uint64_t k)
{
    // Find the node.
    Addr z = getRoot(tx);
    while (z != nil) {
        const std::uint64_t zk = key(tx, z);
        if (k == zk)
            break;
        z = (k < zk) ? left(tx, z) : right(tx, z);
    }
    if (z == nil)
        return false;

    Addr y = z;
    std::uint64_t y_orig_color = color(tx, y);
    Addr x;
    if (left(tx, z) == nil) {
        x = right(tx, z);
        transplant(tx, z, x);
    } else if (right(tx, z) == nil) {
        x = left(tx, z);
        transplant(tx, z, x);
    } else {
        y = minimum(tx, right(tx, z));
        y_orig_color = color(tx, y);
        x = right(tx, y);
        if (parent(tx, y) == z) {
            setParent(tx, x, y);
        } else {
            transplant(tx, y, x);
            setRight(tx, y, right(tx, z));
            setParent(tx, right(tx, y), y);
        }
        transplant(tx, z, y);
        setLeft(tx, y, left(tx, z));
        setParent(tx, left(tx, y), y);
        setColor(tx, y, color(tx, z));
    }
    if (y_orig_color == black)
        eraseFixup(tx, x);
    return true;
}

void
PmRbTree::eraseFixup(Tx &tx, Addr x)
{
    while (x != getRoot(tx) && color(tx, x) == black) {
        Addr xp = parent(tx, x);
        if (x == left(tx, xp)) {
            Addr w = right(tx, xp);
            if (color(tx, w) == red) {
                setColor(tx, w, black);
                setColor(tx, xp, red);
                rotateLeft(tx, xp);
                w = right(tx, xp);
            }
            if (color(tx, left(tx, w)) == black &&
                color(tx, right(tx, w)) == black) {
                setColor(tx, w, red);
                x = xp;
            } else {
                if (color(tx, right(tx, w)) == black) {
                    setColor(tx, left(tx, w), black);
                    setColor(tx, w, red);
                    rotateRight(tx, w);
                    w = right(tx, xp);
                }
                setColor(tx, w, color(tx, xp));
                setColor(tx, xp, black);
                setColor(tx, right(tx, w), black);
                rotateLeft(tx, xp);
                x = getRoot(tx);
            }
        } else {
            Addr w = left(tx, xp);
            if (color(tx, w) == red) {
                setColor(tx, w, black);
                setColor(tx, xp, red);
                rotateRight(tx, xp);
                w = left(tx, xp);
            }
            if (color(tx, right(tx, w)) == black &&
                color(tx, left(tx, w)) == black) {
                setColor(tx, w, red);
                x = xp;
            } else {
                if (color(tx, left(tx, w)) == black) {
                    setColor(tx, right(tx, w), black);
                    setColor(tx, w, red);
                    rotateLeft(tx, w);
                    w = left(tx, xp);
                }
                setColor(tx, w, color(tx, xp));
                setColor(tx, xp, black);
                setColor(tx, left(tx, w), black);
                rotateRight(tx, xp);
                x = getRoot(tx);
            }
        }
    }
    setColor(tx, x, black);
}

std::optional<std::uint64_t>
PmRbTree::find(Tx &tx, std::uint64_t k)
{
    Addr n = getRoot(tx);
    while (n != nil) {
        const std::uint64_t nk = key(tx, n);
        if (k == nk)
            return val(tx, n);
        n = (k < nk) ? left(tx, n) : right(tx, n);
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
PmRbTree::lookup(std::uint64_t k) const
{
    Addr n = pm.readU64(rootSlot);
    while (n != nil) {
        const std::uint64_t nk = pm.readU64(n + offKey);
        if (k == nk)
            return pm.readU64(n + offVal);
        n = (k < nk) ? pm.readU64(n + offLeft)
                     : pm.readU64(n + offRight);
    }
    return std::nullopt;
}

std::size_t
PmRbTree::size() const
{
    // Iterative in-order walk using parent pointers.
    std::size_t n = 0;
    Addr cur = pm.readU64(rootSlot);
    if (cur == nil)
        return 0;
    // Explicit stack-free traversal: descend leftmost, then follow
    // successor links.
    while (pm.readU64(cur + offLeft) != nil)
        cur = pm.readU64(cur + offLeft);
    while (cur != nil) {
        ++n;
        // Successor.
        if (pm.readU64(cur + offRight) != nil) {
            cur = pm.readU64(cur + offRight);
            while (pm.readU64(cur + offLeft) != nil)
                cur = pm.readU64(cur + offLeft);
        } else {
            Addr p = pm.readU64(cur + offParent);
            while (p != nil && cur == pm.readU64(p + offRight)) {
                cur = p;
                p = pm.readU64(p + offParent);
            }
            cur = p;
        }
    }
    return n;
}

bool
PmRbTree::checkNode(Addr n, std::uint64_t lo, std::uint64_t hi,
                    int &black_height) const
{
    if (n == nil) {
        black_height = 1;
        return true;
    }
    const std::uint64_t k = pm.readU64(n + offKey);
    if (k < lo || k > hi)
        return false; // BST order violated
    const std::uint64_t c = pm.readU64(n + offColor);
    const Addr l = pm.readU64(n + offLeft);
    const Addr r = pm.readU64(n + offRight);
    if (c == red) {
        if ((l != nil && pm.readU64(l + offColor) == red) ||
            (r != nil && pm.readU64(r + offColor) == red))
            return false; // red node with a red child
    }
    if (l != nil && pm.readU64(l + offParent) != n)
        return false;
    if (r != nil && pm.readU64(r + offParent) != n)
        return false;
    int lh = 0;
    int rh = 0;
    if (!checkNode(l, lo, k == 0 ? 0 : k - 1, lh))
        return false;
    if (!checkNode(r, k + 1, hi, rh))
        return false;
    if (lh != rh)
        return false; // unequal black heights
    black_height = lh + (c == black ? 1 : 0);
    return true;
}

bool
PmRbTree::checkInvariants() const
{
    const Addr root = pm.readU64(rootSlot);
    if (root == nil)
        return true;
    if (pm.readU64(root + offColor) != black)
        return false;
    int bh = 0;
    return checkNode(root, 0, ~0ULL, bh);
}

} // namespace pmemspec::pmds
