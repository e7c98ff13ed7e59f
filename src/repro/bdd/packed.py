"""Packed truth-table kernel for narrow ISOP intervals.

The paper's ISF minimiser (Section 7.5) is Brown's non-essential-variable
elimination followed by the Minato-Morreale expansion of
:mod:`repro.bdd.isop`.  Every decision in both is semantic (is a bound
empty or full, which variable is on top, what are its cofactors), so on a
frame of at most :data:`MAX_TABLE_WIDTH` variables both run on packed
truth tables: one Python int per function, nothing interned until the
cover is done.

Layout: the frame's variables take *positions* counted from the bottom
(the last variable of the frame is position 0, the top one position
``k-1``), and bit ``i`` of a table is the function's value where the
variable at position ``p`` takes ``(i >> p) & 1``.  The top variable is
thus the most significant index bit: its cofactors are the two halves
of the table, and a sub-interval below it is a table half the size.

The engine's ISOP table holds four kinds of key: a packed sub-interval,
stripped of the top positions neither bound depends on, is keyed
``(width, lower, upper)`` — the same key wherever, and in whichever
frame, it recurs; a call's interval is also keyed by its handles and
elimination flag, ``((lower, upper), eliminate)``, or, when the caller
hands over tables, by its width and tables,
``((width, lower, upper), eliminate)``; and the node-level expansion
keys its sub-intervals by handle pair.

Tables cross the engine boundary in one place each way: :func:`pack`
packs nodes over a frame and :func:`unpack` builds the node of a table.

The expansion (:func:`expand_packed`), a recursion at most ``k`` calls
deep, leaves a cover's cubes as a *cube tree*: ``None`` for no cube,
``()`` for the one empty cube, and for a sub-interval the node ``(top,
tree0, tree1, tree_dc)``: the cubes of ``tree0`` with the negative
literal of position ``top``, those of ``tree1`` with the positive one,
then those of ``tree_dc``.  :func:`tree_cubes` lists a tree only for a
caller that reads cubes (:func:`interval_isop`, :func:`packed_isop`).

:func:`interval_isop` is the node-level entry point, shared by
``BddManager.isop`` and the minimiser pipeline; it hands back the cubes
over frame variables and the cover's node.  :func:`packed_isop` is its
twin for callers that already hold the tables and read cubes (the cube
and literal costs of :mod:`repro.core.packedrel`, and a packed
solution's covers): it hands back the cubes over positions and the
cover's table, and builds no node.  :func:`packed_cover` hands back the
cover's table alone, with no cube listed, for the packed minimiser.
Intervals wider than :data:`MAX_TABLE_WIDTH` run through the
node-level :func:`~repro.bdd.isop.expand` instead.  Covers (cube order
included) and nodes equal the node-level expansion's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .isop import Cube, eliminate_nonessential, expand
from .manager import FALSE, TRUE, BddManager, IsopTable, union_support

#: Widest frame the kernel packs: a 2**16-bit table is 8 KiB per
#: function, where whole-table int operations still beat node-level
#: work.
MAX_TABLE_WIDTH = 16

#: Widest frame the table helpers (:func:`frame_masks`, :func:`permute`,
#: :func:`unpack`) serve: a resynthesis window's 16 leaves plus a
#: two-node cut.  Only :data:`MAX_TABLE_WIDTH` gates the ISOP kernel.
MAX_FRAME_WIDTH = 18

#: Table bits one ISOP-table entry slot may hold on average: the table
#: is flushed at ``limit * _BITS_PER_ENTRY`` packed bits as well as at
#: ``limit`` entries (a 9-variable entry costs one slot).
_BITS_PER_ENTRY = 1 << 9

#: ``_FULLS[w]``: the table of TRUE over ``w`` positions.
_FULLS = [(1 << (1 << w)) - 1 for w in range(MAX_FRAME_WIDTH + 1)]

#: A cover's cubes, unlisted: see the module docstring.
CubeTree = Optional[tuple]

#: k -> (zeros, ones): ``zeros[p]`` marks the table positions where
#: position ``p`` is 0, ``ones[p]`` its complement.
_MASKS: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}


def frame_masks(k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(zeros, ones)`` of a ``k``-position frame (cached)."""
    masks = _MASKS.get(k)
    if masks is None:
        full = _FULLS[k]
        zeros = tuple(full // ((1 << (2 << p)) - 1) * ((1 << (1 << p)) - 1)
                      for p in range(k))
        masks = _MASKS[k] = (zeros, tuple(full ^ zero for zero in zeros))
    return masks


def squeeze(table: int, width: int, keep: int) -> int:
    """Cut the positions outside the bit mask ``keep`` out of a table
    over ``width`` positions, which must not depend on them: position
    ``p`` in ``keep`` becomes its rank among ``keep``'s bits."""
    for p in range(width - 1, -1, -1):
        if keep >> p & 1:
            continue
        zeros, ones = frame_masks(width)
        table &= zeros[p]
        # Move every entry above p down one position, lowest first:
        # the slots each step fills were emptied by the step before.
        for q in range(p + 1, width):
            moved = table & ones[q]
            table ^= moved ^ (moved >> (1 << (q - 1)))
        width -= 1
    return table


def spread(table: int, width: int, keep: int) -> int:
    """The inverse of :func:`squeeze`: a table over the positions of
    ``keep`` restated over ``width`` positions, independent of the
    others."""
    current = bin(keep).count("1")
    for p in range(width):
        if keep >> p & 1:
            continue
        current += 1
        zeros, ones = frame_masks(current)
        for q in range(current - 1, p, -1):
            moved = table & ones[q - 1]
            table ^= moved ^ (moved << (1 << (q - 1)))
        table |= table << (1 << p)
    return table


def vertex_indices(positions: Sequence[int]) -> List[int]:
    """The table index of every vertex of the inputs on ``positions``:
    bit ``i`` of a vertex is the input on position ``positions[i]``."""
    indices = [0]
    for position in positions:
        bit = 1 << position
        indices += [index | bit for index in indices]
    return indices


def permute(table: int, width: int, sources: Sequence[int]) -> int:
    """A table over ``width`` positions restated so that position
    ``width-1-r`` holds the variable that was on position
    ``sources[r]`` (``sources`` names every position once): one swap
    of two positions per variable that moves."""
    zeros, ones = frame_masks(width)
    held = list(range(width))   # held[p]: the source position now on p
    where = list(range(width))  # where[s]: where source position s is
    for r, source in enumerate(sources):
        target, p = width - 1 - r, where[source]
        if p == target:
            continue
        low, high = (p, target) if p < target else (target, p)
        # Entries with ``low`` set and ``high`` clear trade places with
        # their mirror images, which lie ``shift`` indices above.
        shift = (1 << high) - (1 << low)
        up = table & ones[low] & zeros[high]
        down = table & zeros[low] & ones[high]
        table ^= up ^ down
        table |= (up << shift) | (down >> shift)
        other = held[target]
        held[target], held[p] = source, other
        where[source], where[other] = target, p
    return table


def pack(mgr: BddManager, nodes: Sequence[int],
         frame: Sequence[int]) -> List[int]:
    """Packed tables of BDD ``nodes`` over ``frame`` (sorted variables
    containing their supports), built bottom-up in one shared walk.
    Raises ``KeyError`` when a node mentions a variable outside the
    frame."""
    k = len(frame)
    return pack_positions(mgr, nodes,
                          {var: k - 1 - r for r, var in enumerate(frame)},
                          k)


def pack_positions(mgr: BddManager, nodes: Sequence[int],
                   position: Dict[int, int], width: int) -> List[int]:
    """:func:`pack` with the table position of each variable given
    (any assignment of distinct positions below ``width``, not only
    the order-preserving one)."""
    zeros, ones = frame_masks(width)
    level, low, high = mgr._level, mgr._low, mgr._high
    memo = {FALSE: 0, TRUE: _FULLS[width]}
    get = memo.get
    for root in nodes:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            lo, hi = low[node], high[node]
            t0, t1 = get(lo), get(hi)
            if t0 is None:
                stack.append(lo)
            if t1 is None:
                stack.append(hi)
            if t0 is not None and t1 is not None:
                stack.pop()
                p = position[level[node]]
                memo[node] = (t0 & zeros[p]) | (t1 & ones[p])
    return [memo[root] for root in nodes]


def unpack(mgr: BddManager, table: int, frame: Sequence[int]) -> int:
    """The BDD node of a packed table over ``frame``: a Shannon build,
    one node per distinct cofactor."""
    k = len(frame)
    if not table:
        return FALSE
    if table == _FULLS[k]:
        return TRUE
    return _shannon(mgr._mk, table, k, frame, {})


def _shannon(mk, table: int, width: int, frame: Sequence[int],
             memo: Dict[Tuple[int, int], int]) -> int:
    """The node of a table over ``width`` positions that is neither
    empty nor full; constant cofactors never recurse."""
    key = (width, table)
    node = memo.get(key)
    if node is not None:
        return node
    half = 1 << (width - 1)
    mask = _FULLS[width - 1]
    t0 = table & mask
    t1 = table >> half
    # Positions the table does not depend on have equal halves.
    while t0 == t1:
        width -= 1
        half >>= 1
        mask = _FULLS[width - 1]
        t1 = t0 >> half
        t0 &= mask
    low = (FALSE if not t0 else TRUE if t0 == mask
           else _shannon(mk, t0, width - 1, frame, memo))
    high = (FALSE if not t1 else TRUE if t1 == mask
            else _shannon(mk, t1, width - 1, frame, memo))
    node = memo[key] = mk(frame[len(frame) - width], low, high)
    return node


def table_size(tables: Sequence[int], width: int) -> int:
    """The reduced-BDD node count, shared nodes once, of packed tables
    over ``width`` positions in frame order (what ``shared_size`` gives
    for their nodes), with no manager: the nodes on position ``p`` are
    the distinct cofactors by the positions above ``p`` that depend on
    ``p``."""
    count = 0
    level = set(tables)
    for p in range(width - 1, -1, -1):
        mask, half = _FULLS[p], 1 << p
        below = set()
        for table in level:
            low, high = table & mask, table >> half
            count += low != high
            below.add(low)
            below.add(high)
        level = below
    return count


def cover_table(k: int, cubes: Sequence[Sequence[Tuple[int, bool]]]
                ) -> int:
    """The packed table over a ``k``-variable frame of a cover whose
    cubes list ``(rank, polarity)`` pairs: rank ``r`` is the frame's
    ``r``-th variable (position ``k-1-r``)."""
    zeros, ones = frame_masks(k)
    full = _FULLS[k]
    top = k - 1
    table = 0
    for cube in cubes:
        term = full
        for rank, value in cube:
            term &= ones[top - rank] if value else zeros[top - rank]
        table |= term
    return table


def eliminate(k: int, lower: int, upper: int) -> Tuple[int, int]:
    """Brown's greedy elimination from the top variable down: drop the
    variable at position ``p`` when ``[exists p. lower, forall p.
    upper]`` is still an interval."""
    zeros, _ = frame_masks(k)
    for p in range(k - 1, -1, -1):
        zero, shift = zeros[p], 1 << p
        some = (lower | (lower >> shift)) & zero
        every = upper & (upper >> shift) & zero
        if not some & (zero ^ every):
            lower = some | (some << shift)
            upper = every | (every << shift)
    return lower, upper


def expand_packed(k: int, lower: int, upper: int, table: IsopTable,
                  limit: float) -> Tuple[Tuple[CubeTree, int], int, int]:
    """The Minato-Morreale expansion of packed ``[lower, upper]`` over
    ``k`` positions, step for step as :func:`repro.bdd.isop.expand`.

    The top variable is the highest position either bound depends on;
    higher positions neither depends on are stripped first, so a
    sub-interval is its two tables over ``width`` positions, its
    cofactors are the two halves, and it is keyed ``(width, lower,
    upper)`` — the same key wherever (and in whichever frame) the
    interval recurs.  A sub-interval recurses on its three narrower
    children, so the recursion is at most ``k`` calls deep.  Returns
    ``((tree, cover), hits, misses)``: the cube tree and the cubes'
    packed disjunction.  ``table`` gets one entry per miss.
    """
    fulls = _FULLS
    lookup = table.get
    hits = misses = 0

    def expand(low: int, upp: int, target: int) -> Tuple[CubeTree, int]:
        nonlocal hits, misses
        if not low:
            return None, 0
        if upp == fulls[target]:
            return (), upp
        width = target
        while True:
            mask = fulls[width - 1]
            half = 1 << (width - 1)
            low0 = low & mask
            low1 = low >> half
            upp0 = upp & mask
            upp1 = upp >> half
            if low0 != low1 or upp0 != upp1:
                break
            low, upp, width = low0, upp0, width - 1
        key = (width, low, upp)
        result = lookup(key)
        if result is None:
            misses += 1
            top = width - 1
            # Vertices of the 0-half that the 1-half cannot absorb must
            # be covered by cubes carrying the negative literal (and
            # dually); what is still uncovered may be captured by cubes
            # without the top variable.
            tree0, f0 = expand(low0 & (mask ^ upp1), upp0, top)
            tree1, f1 = expand(low1 & (mask ^ upp0), upp1, top)
            tree_dc, f_dc = expand((low0 & (mask ^ f0))
                                   | (low1 & (mask ^ f1)),
                                   upp0 & upp1, top)
            result = ((top, tree0, tree1, tree_dc),
                      (f0 | f_dc) | ((f1 | f_dc) << half))
            _store(table, limit, key, result, 1 << width)
        else:
            hits += 1
        tree, cover = result
        for width in range(width, target):
            cover |= cover << (1 << width)
        return tree, cover

    result = expand(lower, upper, k)
    # expand calls itself through its closure cell: empty the cell, or
    # the closure (and the table it reads) outlives this call in a
    # reference cycle that only the cyclic collector frees.
    del expand
    return result, hits, misses


def tree_cubes(tree: CubeTree, names: Sequence = range(MAX_TABLE_WIDTH)
               ) -> List[Tuple[Tuple[object, bool], ...]]:
    """The cubes of a cube tree in the expansion's order, each a tuple
    of ``(names[position], polarity)`` pairs, highest position first."""
    cubes: list = []
    append = cubes.append

    def walk(tree: tuple, prefix: tuple) -> None:
        if not tree:
            append(prefix)
            return
        top, tree0, tree1, tree_dc = tree
        name = names[top]
        if tree0 is not None:
            walk(tree0, prefix + ((name, False),))
        if tree1 is not None:
            walk(tree1, prefix + ((name, True),))
        if tree_dc is not None:
            walk(tree_dc, prefix)

    if tree is not None:
        walk(tree, ())
    del walk  # a self-referring closure: see expand_packed
    return cubes


def interval_isop(mgr: BddManager, lower: int, upper: int,
                  support: Optional[Tuple[int, ...]] = None,
                  eliminate_first: bool = False
                  ) -> Tuple[List[Cube], int]:
    """Irredundant SOP cover ``(cubes, node)`` of ``[lower, upper]``,
    optionally after Brown's elimination — ``BddManager.isop`` and the
    minimiser pipeline both land here.

    ``support`` is a sorted frame containing the joint support of the
    bounds; by default it is the union of the bounds' supports.  Frames
    up to :data:`MAX_TABLE_WIDTH` run packed, wider ones node by node;
    either way the sub-intervals go through the manager's ISOP table
    and counters.  Raises ``ValueError`` unless ``lower <= upper``.
    """
    frame = support
    if frame is None:
        frame = union_support(mgr.support(lower), mgr.support(upper))
    table, limit = mgr._isop_scope()
    if len(frame) > MAX_TABLE_WIDTH:
        if not mgr.implies(lower, upper):
            raise ValueError("isop requires lower <= upper")
        if eliminate_first:
            lower, upper = eliminate_nonessential(mgr, lower, upper)
        (cubes, node), hits, misses = expand(mgr, lower, upper, table,
                                             limit)
        mgr._isop_hits += hits
        mgr._isop_misses += misses
        return [dict(cube) for cube in cubes], node
    # The interval itself is also keyed by its handles, so a repeat
    # costs one lookup, as on the node-level path.  The nested pair
    # keeps the key apart from (width, lower, upper) and node-pair keys.
    key = ((lower, upper), eliminate_first)
    hit = table.get(key)
    if hit is None:
        low, upp = pack(mgr, (lower, upper), frame)
        if low & ~upp:
            raise ValueError("isop requires lower <= upper")
        tree, cover = _cover(mgr, table, limit, low, upp, len(frame),
                             eliminate_first)
        hit = (tree_cubes(tree, frame[::-1]), unpack(mgr, cover, frame))
        _store(table, limit, key, hit, 0)
    else:
        mgr._isop_hits += 1
    return [dict(cube) for cube in hit[0]], hit[1]


def packed_isop(mgr, lower: int, upper: int, k: int,
                eliminate_first: bool = False
                ) -> Tuple[List[Tuple[Tuple[int, bool], ...]], int]:
    """:func:`interval_isop` for a caller holding the packed bounds
    over ``k`` positions (at most :data:`MAX_TABLE_WIDTH`, ``lower <=
    upper``): returns ``(cubes, cover)``, each cube a tuple of
    ``(position, polarity)`` pairs, highest position first, and
    ``cover`` their packed disjunction.  No node is built.
    """
    table, key, (cubes, cover) = _keyed_cover(mgr, lower, upper, k,
                                              eliminate_first)
    if type(cubes) is not list:
        # The entry holds the kernel's cube tree: list it once, in place.
        cubes = tree_cubes(cubes)
        table[key] = cubes, cover
    return cubes, cover


def packed_cover(mgr, lower: int, upper: int, k: int,
                 eliminate_first: bool = False) -> int:
    """The cover's table of :func:`packed_isop`, with no cube listed:
    for the packed minimiser, which reads the cover alone."""
    return _keyed_cover(mgr, lower, upper, k, eliminate_first)[2][1]


def _keyed_cover(mgr, lower: int, upper: int, k: int,
                 eliminate_first: bool) -> Tuple[IsopTable, tuple, tuple]:
    """The ISOP table, key and entry of a packed call, keyed by its
    width, tables and elimination flag, so a repeat costs one lookup.
    The entry is ``(tree, cover)``, or ``(cubes, cover)`` once
    :func:`packed_isop` has listed the tree."""
    table, limit = mgr._isop_scope()
    key = ((k, lower, upper), eliminate_first)
    entry = table.get(key)
    if entry is None:
        entry = _cover(mgr, table, limit, lower, upper, k, eliminate_first)
        _store(table, limit, key, entry, 2 << k)
    else:
        mgr._isop_hits += 1
    return table, key, entry


def _cover(mgr, table: IsopTable, limit: float, low: int, upp: int,
           k: int, eliminate_first: bool) -> Tuple[CubeTree, int]:
    """``(tree, cover)`` of packed ``[low, upp]`` over ``k``
    positions, eliminated first when asked."""
    if eliminate_first:
        low, upp = eliminate(k, low, upp)
    result, hits, misses = expand_packed(k, low, upp, table, limit)
    mgr._isop_hits += hits
    mgr._isop_misses += misses
    return result


def _store(table: IsopTable, limit: float, key, value, bits: int) -> None:
    if len(table) >= limit or table.bits >= limit * _BITS_PER_ENTRY:
        table.clear()
    table[key] = value
    table.bits += bits
