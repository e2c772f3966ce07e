"""Max-min fair-share bandwidth allocation (progressive filling).

The fluid level models every long-lived flow as a rate, not a packet
stream.  Given the set of active flows and the directed link capacities
they traverse, the classic water-filling algorithm yields the max-min
fair allocation: repeatedly find the most constrained link (smallest
equal share among its unfrozen flows), freeze every flow crossing it at
that share, subtract, and continue until all flows are frozen.

Two implementations share that semantics:

* :func:`max_min_rates` — the from-scratch per-flow reference.  It
  rebuilds the per-link state on every call and scans every unfrozen
  flow per water-filling iteration: O(flows x path length) per
  iteration.  Kept as the executable specification the tests compare
  against.
* :class:`PathClassSolver` — the incremental *path-class* solver the
  engine uses.  Flows sharing an identical directed-link signature
  collapse into one variable carrying a multiplicity, so a solve runs
  over O(distinct paths) variables regardless of flow count.  Per-link
  state and the last solve's bottleneck structure stay alive across
  solves, arrivals/departures/pins are O(path length) deltas, and a
  solve re-levels only the region of classes those deltas can reach.

The solver's rates are **max-min optimal**: no link carries more than
its capacity less pinned demand (unless every class crossing it sits
at the rate floor), and every class above the floor crosses a
saturated link on which no class has a higher rate.  They agree with
:func:`max_min_rates` over the expanded per-flow inputs to a relative
1e-9 — in practice to ~1e-13, rounding only: a link drains by
``count * share`` at once where the reference drains one flow at a
time, and a region solve reads what the outside classes leave of a
link off per-link loads kept by deltas.  ``tests/test_flowsim.py``
checks optimality directly after every solve, and the agreement with
the reference and with a fresh solve, on randomized churn.

Two extensions the hybrid engine needs:

* **Pinned flows** — escalated segments carry a packet-derived rate the
  solver must respect, so pinned demand is subtracted from link
  capacity before the elastic flows share the remainder.
* **A rate floor** — when pinned demand saturates a link completely,
  the elastic flows crossing it would otherwise receive rate 0 and
  never finish; :data:`MIN_RATE_BPS` keeps the fluid system live (and
  is far below any rate that could influence a calibrated result).

Everything is deterministic: bottleneck ties resolve to the smallest
link index, regions and link sets are insertion-ordered dicts, the
changed set fills in freeze order, and the result is a pure function
of the sequence of deltas.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MIN_RATE_BPS",
    "PathClassSolver",
    "max_min_class_rates",
    "max_min_rates",
]

#: Floor on any allocated rate, so overload cannot stall the event loop.
MIN_RATE_BPS = 1e3

#: A path class's directed-link signature: the link keys in path order.
PathSig = Tuple[int, ...]

#: Relative tolerance of the region solve's max-min check.
_TOL = 1e-9


def max_min_rates(
    flow_links: Mapping[int, Sequence[int]],
    capacity_bps: Mapping[int, float],
    pinned_bps: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Max-min fair rates for elastic flows over directed links.

    Args:
        flow_links: flow id -> the directed-link keys it traverses.
            Flows listed here are *elastic* (rate decided by fairness).
        capacity_bps: directed-link key -> capacity in bps.
        pinned_bps: directed-link key -> total demand already committed
            to pinned (escalated) flows on that link, subtracted from
            capacity before sharing.  ``None`` means no pinned demand
            (a ``None`` sentinel, not a shared mutable ``{}`` default).

    Returns:
        flow id -> allocated rate (bps), every flow >= MIN_RATE_BPS.
    """
    if pinned_bps is None:
        pinned_bps = {}
    # remaining capacity and unfrozen-flow count per link
    remaining: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for flow_id, links in flow_links.items():
        for key in links:
            counts[key] = counts.get(key, 0) + 1
    for key, count in counts.items():
        cap = capacity_bps[key] - pinned_bps.get(key, 0.0)
        remaining[key] = cap if cap > 0.0 else 0.0

    rates: Dict[int, float] = {}
    unfrozen = dict(flow_links)
    while unfrozen:
        # The bottleneck link: smallest equal share among its flows.
        share = None
        for key, count in counts.items():
            if count <= 0:
                continue
            candidate = remaining[key] / count
            if share is None or candidate < share:
                share = candidate
        if share is None:
            # Remaining flows traverse only links with no unfrozen
            # counts — cannot happen by construction, but stay safe.
            for flow_id in unfrozen:
                rates[flow_id] = MIN_RATE_BPS
            break
        share = max(share, MIN_RATE_BPS)
        # Freeze every unfrozen flow crossing a link at (or numerically
        # below) the bottleneck share.
        threshold = share * (1.0 + 1e-12)
        frozen = [
            flow_id
            for flow_id, links in unfrozen.items()
            if any(
                counts[key] > 0 and remaining[key] / counts[key] <= threshold
                for key in links
            )
        ]
        if not frozen:
            # Numerical corner: nothing met the threshold (degenerate
            # capacities); freeze everything at the floor to terminate.
            frozen = list(unfrozen)
            share = MIN_RATE_BPS
        for flow_id in frozen:
            rates[flow_id] = share
            for key in unfrozen[flow_id]:
                counts[key] -= 1
                remaining[key] -= share
                if remaining[key] < 0.0:
                    remaining[key] = 0.0
            del unfrozen[flow_id]
    return rates


class PathClassSolver:
    """Incremental max-min solver over path classes.

    A *path class* is the set of flows sharing one directed-link
    signature; the solver carries one variable per class with an
    integer multiplicity.  Membership mutates through :meth:`add` /
    :meth:`remove` (O(path length) each), pinned per-link demand
    through :meth:`pin` deltas, and :meth:`resolve` re-solves only the
    classes those deltas can reach.

    Every link key is interned to a dense index on first sight, so the
    per-link state is flat lists: capacity, pinned demand, the
    water-filling start level (capacity less pinned demand, clamped at
    0), the flow-traversal count, the member classes, the elastic load
    ``sum(multiplicity * rate)``, and the classes *bottlenecked* there
    (frozen at that link by the last solve).  Each class keeps its rate
    and its bottleneck link.  The load is kept by deltas, and resets to
    exactly 0 when a link's last flow leaves.

    **The region.**  A solve starts from the deltas since the previous
    one: new classes, and links whose count or pinned demand moved.  It
    seeds the region with the new classes and the classes bottlenecked
    at a changed link, then grows it along the previous solve's
    bottleneck structure (Ros-Giralt et al., "On the Bottleneck
    Structure of Congestion-Controlled Networks", SIGMETRICS 2020): a
    region class's links, the classes bottlenecked there, their links,
    and so on.  The region water-fills over what the classes outside it
    leave of each link.  Then every touched link (a changed link or a
    region class's link) is checked against the max-min conditions, to
    a relative tolerance of :data:`_TOL`.  An outside class crossing it
    joins the region when the link is overloaded and the class is above
    :data:`MIN_RATE_BPS`, or when its rate exceeds that of a region
    class bottlenecked there.  (Growth already took in every class
    bottlenecked at a touched link, so no outside class is.)  Joiners
    grow the region the same way, and the region is solved again.
    Max-min rates are unique, so neither ties nor visiting order can
    change a rate.

    **One water-filling loop** (:meth:`_fill`) serves the region and
    the full solve.  A region that holds every live class is the full
    solve, which needs no check; the solver takes it once the region
    outgrows half of the live classes.  A shared bottleneck that
    reaches most classes from one delta is caught while the region
    grows, before any region water-filling.  An empty region skips the
    loop, and a one-class region (:meth:`_fill_one`) is filled in
    closed form.  The loop walks a sorted ``(share, link)`` seed list
    with an index pointer instead of heap pops: water-filling visits
    links in nondecreasing share order, so the saturated links of a
    round are the walked prefix at or below the freeze threshold, and a
    round's refreshed shares re-enter via ``bisect.insort`` at or after
    the pointer.  Stale entries, superseded by a later insert, are
    skipped: an entry is current exactly when its share equals the
    link's live share.

    **Cost.**  A region pass costs O(region classes x path length) plus
    one sweep over the members of each touched link where a region
    class froze or that is overloaded; a solve takes 1.05-1.5 passes on
    the bench workloads.  A full solve costs O(live links log live
    links + live classes x path length).  Either way, only classes
    whose rate or bottleneck moved update the per-link load and
    bottleneck sets.
    """

    __slots__ = ("_capacity", "_key2idx", "_cap", "_pinned",
                 "_remaining0", "_counts", "_members", "_load",
                 "_bneck", "_info", "_nflows", "_new", "_dirty",
                 "_stamp", "changed")

    def __init__(self, capacity_bps: Mapping[int, float]):
        #: Live view of directed-link capacities; the engine grows it
        #: as new links are first traversed, and each key's capacity is
        #: captured when the key is first interned.
        self._capacity = capacity_bps
        self._key2idx: Dict[int, int] = {}
        self._cap: List[float] = []
        self._pinned: List[float] = []
        #: dense index -> capacity minus pinned demand, clamped at 0:
        #: the water-filling start level.
        self._remaining0: List[float] = []
        #: dense index -> flow-traversal count (one per occurrence of
        #: the link in a member's signature).
        self._counts: List[int] = []
        #: dense index -> insertion-ordered map of member class
        #: signature -> its shared ``_info`` record.
        self._members: List[Dict[PathSig, list]] = []
        #: dense index -> elastic load, sum of multiplicity x rate.
        self._load: List[float] = []
        #: dense index -> the classes the last solve froze at that link.
        self._bneck: List[Dict[PathSig, list]] = []
        #: class signature -> ``[member count, interned signature,
        #: stamp, rate, bottleneck index, rate before this solve]``.
        #: One record per class, shared by reference with every
        #: ``_members`` and ``_bneck`` row it appears in.  The rate is
        #: ``None`` before the class's first solve, and the bottleneck
        #: -1 when it froze at none of its links.  The stamp places the
        #: class in the current solve: below ``_stamp`` outside the
        #: region, ``_stamp`` in it and unfrozen, ``_stamp + 1`` frozen.
        self._info: Dict[PathSig, list] = {}
        self._nflows = 0
        #: The deltas since the last solve: classes created, and links
        #: whose count or pinned demand moved (insertion-ordered).
        self._new: Dict[PathSig, list] = {}
        self._dirty: Dict[int, None] = {}
        self._stamp = 0
        #: Classes whose rate differs from the previous solve, in
        #: freeze order — the classes the engine rebases, so unchanged
        #: classes cost nothing after the solve.
        self.changed: Dict[PathSig, float] = {}

    def _intern(self, key: int) -> int:
        idx = len(self._cap)
        self._key2idx[key] = idx
        self._cap.append(self._capacity[key])
        self._pinned.append(0.0)
        self._remaining0.append(self._cap[idx])
        self._counts.append(0)
        self._members.append({})
        self._load.append(0.0)
        self._bneck.append({})
        return idx

    # -- membership / demand deltas -------------------------------------

    def add(self, sig: PathSig, count: int = 1) -> None:
        """Add ``count`` flows with directed-link signature ``sig``."""
        info = self._info.get(sig)
        self._nflows += count
        counts = self._counts
        dirty = self._dirty
        if info is None:
            # A class created (or re-created after dying) carries no
            # previous rate, so its first solve back always reports it
            # in ``changed``, whatever rate it gets.
            info = [count, (), 0, None, -1, None]
            self._info[sig] = info
            self._new[sig] = info
            key2idx = self._key2idx
            members = self._members
            idxs = []
            for key in sig:
                idx = key2idx.get(key)
                if idx is None:
                    idx = self._intern(key)
                idxs.append(idx)
                counts[idx] += count
                members[idx][sig] = info
                dirty[idx] = None
            info[1] = tuple(idxs)
        else:
            info[0] += count
            rate = info[3]
            carried = 0.0 if rate is None else count * rate
            load = self._load
            for idx in info[1]:
                counts[idx] += count
                load[idx] += carried
                dirty[idx] = None

    def remove(self, sig: PathSig, count: int = 1) -> None:
        """Remove ``count`` flows from the class with signature ``sig``."""
        info = self._info[sig]
        have = info[0] - count
        if have < 0:
            raise ValueError(
                f"removing {count} flows from class of {have + count}"
            )
        self._nflows -= count
        counts = self._counts
        load = self._load
        dirty = self._dirty
        rate = info[3]
        drop = 0.0 if rate is None else count * rate
        if have:
            info[0] = have
        else:
            del self._info[sig]
            self._new.pop(sig, None)
            if info[4] >= 0:
                del self._bneck[info[4]][sig]
            members = self._members
            for idx in info[1]:
                members[idx].pop(sig, None)
        for idx in info[1]:
            counts[idx] -= count
            load[idx] = load[idx] - drop if counts[idx] else 0.0
            dirty[idx] = None

    def pin(self, key: int, delta_bps: float) -> None:
        """Shift the inelastic (pinned) demand on ``key`` by a delta.

        Escalated flows' packet-derived rates accumulate here through
        arrivals, departures, and group-rate changes, so a solve reads
        pinned demand straight off the dense state instead of taking a
        freshly summed mapping per call.
        """
        idx = self._key2idx.get(key)
        if idx is None:
            idx = self._intern(key)
        self._pinned[idx] += delta_bps
        left = self._cap[idx] - self._pinned[idx]
        self._remaining0[idx] = left if left > 0.0 else 0.0
        self._dirty[idx] = None

    def pinned_demand(self, key: int) -> float:
        """Current pinned demand on link ``key`` (0.0 if never seen)."""
        idx = self._key2idx.get(key)
        return 0.0 if idx is None else self._pinned[idx]

    @property
    def num_classes(self) -> int:
        """Distinct path classes currently registered."""
        return len(self._info)

    @property
    def num_flows(self) -> int:
        """Total member flows across all classes."""
        return self._nflows

    # -- the solve -------------------------------------------------------

    def resolve(self) -> Dict[PathSig, float]:
        """Re-solve what the deltas reach; return only the *changed* set.

        The engine's per-event entry point: each class's rate lands in
        its info record, and the return value (also left on
        :attr:`changed`) maps exactly the classes whose rate differs
        from the previous solve, in freeze order.
        """
        self._stamp = stamp = self._stamp + 2
        changed: Dict[PathSig, float] = {}
        self.changed = changed
        limit = len(self._info) >> 1
        bneck = self._bneck
        # The deltas become the region (new classes, whose rate before
        # this solve is already None) and the touched links: the
        # changed ones, then every region class's.
        region = self._new
        links = self._dirty
        self._new = {}
        self._dirty = {}
        grow = list(region.values())
        for info in grow:
            info[2] = stamp
        for idx in links:
            for sig, info in bneck[idx].items():
                if info[2] < stamp:
                    info[2] = stamp
                    info[5] = info[3]
                    region[sig] = info
                    grow.append(info)
        while True:
            # Grow along the bottleneck structure: a region class's
            # links, then the classes frozen there.
            while grow and len(region) <= limit:
                for idx in grow.pop()[1]:
                    if idx not in links:
                        links[idx] = None
                        for sig, info in bneck[idx].items():
                            if info[2] < stamp:
                                info[2] = stamp
                                info[5] = info[3]
                                region[sig] = info
                                grow.append(info)
            if len(region) > limit:
                break
            if len(region) == 1:
                self._fill_one(region, stamp, changed)
            elif region:
                self._fill_region(region, stamp, changed)
            violators = self._violators(links, stamp)
            if not violators:
                return changed
            changed.clear()
            for sig, info in violators.items():
                info[2] = stamp
                info[5] = info[3]
                region[sig] = info
                grow.append(info)
        changed.clear()
        self._fill_all(stamp, changed)
        return changed

    def _fill_all(self, stamp: int, changed: Dict[PathSig, float]) -> None:
        """Water-fill every live class from the full link state."""
        info_map = self._info
        for info in info_map.values():
            if info[2] < stamp:
                info[5] = info[3]
            info[2] = stamp
        counts = self._counts[:]
        remaining = self._remaining0[:]
        cur = [-1.0] * len(counts)
        seeds = []
        for idx, count in enumerate(counts):
            if count:
                cur[idx] = share = remaining[idx] / count
                seeds.append((share, idx))
        seeds.sort()
        self._fill(self._members, counts, remaining, seeds, cur, info_map,
                   stamp, changed)

    def _fill_region(self, region: Dict[PathSig, list], stamp: int,
                     changed: Dict[PathSig, float]) -> None:
        """Water-fill ``region`` over the capacity outside classes leave."""
        counts: Dict[int, int] = {}
        inside: Dict[int, float] = {}
        rows: Dict[int, Dict[PathSig, list]] = {}
        for sig, info in region.items():
            info[2] = stamp
            m = info[0]
            rate = info[3]
            carried = m * rate if rate is not None else 0.0
            for idx in info[1]:
                row = rows.get(idx)
                if row is None:
                    rows[idx] = {sig: info}
                    counts[idx] = m
                    inside[idx] = carried
                else:
                    row[sig] = info
                    counts[idx] += m
                    inside[idx] += carried
        all_counts = self._counts
        load = self._load
        remaining0 = self._remaining0
        remaining: Dict[int, float] = {}
        cur: Dict[int, float] = {}
        seeds = []
        for idx, count in counts.items():
            left = remaining0[idx]
            if count != all_counts[idx]:
                left -= load[idx] - inside[idx]
                if left < 0.0:
                    left = 0.0
            remaining[idx] = left
            cur[idx] = share = left / count
            seeds.append((share, idx))
        seeds.sort()
        self._fill(rows, counts, remaining, seeds, cur, region, stamp,
                   changed)

    def _fill_one(self, region: Dict[PathSig, list], stamp: int,
                  changed: Dict[PathSig, float]) -> None:
        """:meth:`_fill_region` of a one-class region, in closed form.

        The class freezes at the smallest ``left / m`` over its links,
        floored at :data:`MIN_RATE_BPS`, and its bottleneck is the first
        link at that share in ``(share, index)`` order, as in the loop.
        A signature that repeats a link goes through the loop.
        """
        ((sig, info),) = region.items()
        m = info[0]
        idxs = info[1]
        prev = info[3]
        if len(set(idxs)) != len(idxs):
            self._fill_region(region, stamp, changed)
            return
        all_counts = self._counts
        load = self._load
        remaining0 = self._remaining0
        carried = m * prev if prev is not None else 0.0
        share = -1.0
        bidx = -1
        for idx in idxs:
            left = remaining0[idx]
            if m != all_counts[idx]:
                left -= load[idx] - carried
                if left < 0.0:
                    left = 0.0
            s = left / m
            if bidx < 0 or s < share or (s == share and idx < bidx):
                share, bidx = s, idx
        if share < MIN_RATE_BPS:
            share = MIN_RATE_BPS
        info[2] = stamp + 1
        if share != prev:
            info[3] = share
            moved = m * (share - prev if prev is not None else share)
            for idx in idxs:
                load[idx] += moved
        if share != info[5]:
            changed[sig] = share
        if info[4] != bidx:
            bneck = self._bneck
            if info[4] >= 0:
                del bneck[info[4]][sig]
            if bidx >= 0:
                bneck[bidx][sig] = info
            info[4] = bidx

    def _fill(self, rows, counts, remaining, seeds, cur,
              classes: Dict[PathSig, list], stamp: int,
              changed: Dict[PathSig, float]) -> None:
        """The water-filling loop, over ``classes`` (each stamped
        ``stamp``).

        ``rows`` maps a link index to the classes crossing it,
        ``counts`` and ``remaining`` give each link's unfrozen flow
        count and spare capacity, and ``seeds`` lists ``(share, link)``
        ascending, with ``cur`` holding each link's live share.  A
        frozen class gets its rate, bottleneck, load deltas and
        ``changed`` entry here.
        """
        load = self._load
        bneck = self._bneck
        min_rate = MIN_RATE_BPS
        frozen = stamp + 1
        pending = len(classes)
        p = 0
        end = len(seeds)
        while pending and p < end:
            # Bottleneck: the smallest *current* share.  An entry is
            # current exactly when its share equals ``cur[idx]`` (every
            # mutation refreshes ``cur``, and a link with no unfrozen
            # flows holds the -1.0 sentinel no entry can match); stale
            # copies superseded by a fresher insort are skipped by the
            # pointer walk.  Fresh entries always land at or after the
            # walk pointer (shares only grow across rounds up to ulp
            # rounding, and ``insort(..., lo=p)`` pins the floor), so
            # advancing ``p`` never skips a live link.
            share = -1.0
            while p < end:
                s, idx = seeds[p]
                p += 1
                if s == cur[idx]:
                    share = s
                    break
            if share < 0.0:
                break
            if share < min_rate:
                share = min_rate
            threshold = share * (1.0 + 1e-12)
            # Freeze every class crossing a saturated link at the
            # share.  The sweep only tallies frozen occurrences per
            # touched link; counts, the clamped capacity drains,
            # ``cur`` and the fresh seed entries are applied once per
            # link after the whole round, so saturation is judged
            # against round-start shares throughout.
            touched: Dict[int, int] = {}
            while True:
                for sig, info in rows[idx].items():
                    if info[2] != stamp:
                        continue
                    info[2] = frozen
                    pending -= 1
                    m = info[0]
                    idxs = info[1]
                    for jdx in idxs:
                        if jdx in touched:
                            touched[jdx] += m
                        else:
                            touched[jdx] = m
                    prev = info[3]
                    if share != prev:
                        info[3] = share
                        moved = m * (share - prev if prev is not None
                                     else share)
                        for jdx in idxs:
                            load[jdx] += moved
                    if share != info[5]:
                        changed[sig] = share
                    if info[4] != idx:
                        if info[4] >= 0:
                            del bneck[info[4]][sig]
                        bneck[idx][sig] = info
                        info[4] = idx
                # Next saturated link at (or numerically below) the
                # threshold: the list is sorted and every entry before
                # the pointer is consumed.
                idx = -1
                while p < end and seeds[p][0] <= threshold:
                    s, idx = seeds[p]
                    p += 1
                    if s == cur[idx]:
                        break
                    idx = -1
                if idx < 0:
                    break
            for idx, drains in touched.items():
                counts[idx] = count = counts[idx] - drains
                left = remaining[idx] - drains * share
                if left < 0.0:
                    left = 0.0
                remaining[idx] = left
                if count > 0:
                    s = left / count
                    cur[idx] = s
                    insort(seeds, (s, idx), p)
                    end += 1
                else:
                    cur[idx] = -1.0
        if not pending:
            return
        # Classes whose every link ran out of unfrozen counts, or that
        # traverse no links at all, get the liveness floor: the
        # reference's ``share is None`` branch.
        for sig, info in classes.items():
            if info[2] != stamp:
                continue
            info[2] = frozen
            prev = info[3]
            if prev != min_rate:
                info[3] = min_rate
                moved = info[0] * (min_rate - prev if prev is not None
                                   else min_rate)
                for idx in info[1]:
                    load[idx] += moved
            if info[5] != min_rate:
                changed[sig] = min_rate
            if info[4] >= 0:
                del bneck[info[4]][sig]
                info[4] = -1

    def _violators(self, links: Dict[int, None],
                   stamp: int) -> Dict[PathSig, list]:
        """Outside classes breaking a max-min condition on a touched link.

        On each touched link: when it carries more than its capacity
        less pinned demand, every outside class above the rate floor;
        otherwise, when a region class froze there, every outside
        class whose rate exceeds that level.
        """
        members = self._members
        bneck = self._bneck
        load = self._load
        remaining0 = self._remaining0
        over = 1.0 + _TOL
        found: Dict[PathSig, list] = {}
        for idx in links:
            if load[idx] > remaining0[idx] * over:
                ceiling = MIN_RATE_BPS
            elif bneck[idx]:
                # The classes frozen at one link froze in one round, at
                # one share.
                ceiling = next(iter(bneck[idx].values()))[3] * over
            else:
                continue
            for sig, info in members[idx].items():
                if info[2] < stamp and info[3] > ceiling:
                    found[sig] = info
        return found

    def solve(self) -> Dict[PathSig, float]:
        """Max-min fair rate per path class (every member gets it).

        Runs :meth:`resolve` and reports every live class, changed or
        not.
        """
        self.resolve()
        return {sig: info[3] for sig, info in self._info.items()}


def max_min_class_rates(
    class_flows: Mapping[PathSig, int],
    capacity_bps: Mapping[int, float],
    pinned_bps: Optional[Mapping[int, float]] = None,
) -> Dict[PathSig, float]:
    """One-shot convenience: class signature+multiplicity -> fair rate.

    Builds a :class:`PathClassSolver`, registers every class, pins
    ``pinned_bps`` (per-link inelastic demand, as in
    :func:`max_min_rates`) through :meth:`PathClassSolver.pin` as the
    engine does, and runs a single solve.  Used by tests comparing the
    class-level result against the per-flow reference.
    """
    solver = PathClassSolver(capacity_bps)
    for sig, count in class_flows.items():
        solver.add(sig, count)
    for key, demand in (pinned_bps or {}).items():
        solver.pin(key, demand)
    return solver.solve()
