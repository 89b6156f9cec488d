"""The eligibility index must be invisible: an optimization, not a policy.

``DeviceDriver`` keeps dispatchable requests in an incrementally maintained
index instead of rescanning the whole queue per dispatch.  These tests pin
the contract down:

* a reference driver -- the straightforward full-scan selection, kept here
  as an executable specification -- produces the *identical* trace (ids,
  batching, timestamps, errors) on randomized workloads under every policy
  family, fault-free and with retried and failed batches, and the index is
  empty once the queue drains;
* the backward concatenation direction prefers the first-issued request on
  an end-LBN tie, like the forward direction always has;
* dispatch cost stays near-linear in queue depth (the policy is consulted
  O(1) times per request, not once per pending request per dispatch), and
  a policy that holds nothing back is not called at all.
"""

import random

import pytest

from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics
from repro.faults import PROFILES
from repro.sim import Engine


class ReferenceDriver(DeviceDriver):
    """The pre-index driver: scan everything pending on every dispatch.

    The index plumbing is disabled wholesale (classification and wakeup
    bookkeeping become no-ops) and selection recomputes eligibility from
    scratch each time -- quadratic, but obviously correct.  The write FIFO
    and the -NR read conflict are decided by scanning the pending writes,
    not the driver's write extent index ``_writes`` (selection runs only
    while the drive is idle, so every incomplete write is pending).  The
    optimized driver must match it exactly.
    """

    def _classify(self, request):
        pass

    def _remove_eligible(self, request):
        pass

    def _after_completions(self, batch):
        pass

    def _behind_earlier_write(self, request):
        return any(other.is_write and other.id < request.id
                   and other.overlaps(request.lbn, request.nsectors)
                   for other in self._pending.values())

    def _dispatchable(self, request):
        policy = self.policy
        if request.is_write:
            if self._behind_earlier_write(request):
                return False
        elif policy.conflict_checked_reads:
            return not self._behind_earlier_write(request)
        if policy.eligibility == "none":
            return True
        if policy.eligibility == "monotone":
            return policy.may_dispatch(request)
        return not policy.blocking_deps(request)

    def _select_batch(self):
        pool = {request.id: request for request in self._pending.values()
                if self._dispatchable(request)}
        if not pool:
            return None
        ahead = [r for r in pool.values() if r.lbn >= self._head_lbn]
        chosen = min(ahead or pool.values(), key=lambda r: (r.lbn, r.id))
        return self._concatenate_pool(chosen, pool)

    def _concatenate_pool(self, chosen, pool):
        same_kind = {}
        for request in pool.values():
            if request.kind is chosen.kind and request is not chosen:
                held = same_kind.get(request.lbn)
                if held is None or request.id < held.id:
                    same_kind[request.lbn] = request
        batch = [chosen]
        total = chosen.nsectors
        cursor = chosen.end_lbn
        while total < self.max_batch_sectors and cursor in same_kind:
            nxt = same_kind.pop(cursor)
            batch.append(nxt)
            total += nxt.nsectors
            cursor = nxt.end_lbn
        by_end = {}
        for request in same_kind.values():
            held = by_end.get(request.end_lbn)
            if held is None or request.id < held.id:
                by_end[request.end_lbn] = request
        cursor = batch[0].lbn
        while total < self.max_batch_sectors and cursor in by_end:
            prev = by_end.pop(cursor)
            batch.insert(0, prev)
            total += prev.nsectors
            cursor = prev.lbn
        return batch


def replay(driver_cls, policy_factory, seed, nops=120, profile="none"):
    """Run a seeded random workload, on a drive with fault profile
    *profile*; return the driver and its completion trace."""
    rng = random.Random(seed)
    engine = Engine()
    disk = Disk(engine)
    if profile != "none":
        disk.faults = PROFILES[profile](seed).build()
    driver = driver_cls(engine, disk, policy_factory())
    issued = []

    def producer():
        for _ in range(nops):
            # stagger arrivals so requests land mid-dispatch, not only in
            # one pre-run burst (wakeup paths differ between the two)
            if rng.random() < 0.3:
                yield engine.timeout(rng.choice([0.0003, 0.002, 0.011]))
            roll = rng.random()
            if roll < 0.7:
                lbn = (7919 * rng.randrange(1000)) % 200_000
            else:
                lbn = 1000 + rng.randrange(64)  # force overlap traffic
            nsectors = rng.choice([2, 8, 16])
            if rng.random() < 0.35:
                issued.append(driver.read(lbn, nsectors))
            else:
                deps = None
                if rng.random() < 0.3 and issued:
                    back = rng.randrange(1, 4)
                    deps = frozenset(r.id for r in issued[-back:]
                                     if r.is_write) or None
                issued.append(driver.write(
                    lbn, bytes([rng.randrange(1, 256)]) * (512 * nsectors),
                    flag=rng.random() < 0.3, depends_on=deps))

    engine.run_until(engine.process(producer()), max_events=5_000_000)
    for request in issued:
        engine.run_until(request.done, max_events=5_000_000)
    return driver, [(r.id, r.kind, r.lbn, r.nsectors, r.issue_time,
                     r.dispatch_time, r.complete_time, r.error)
                    for r in driver.trace]


POLICIES = [
    ("ignore", lambda: FlagPolicy(FlagSemantics.IGNORE)),
    ("part", lambda: FlagPolicy(FlagSemantics.PART)),
    ("part-nr", lambda: FlagPolicy(FlagSemantics.PART, read_bypass=True)),
    ("back", lambda: FlagPolicy(FlagSemantics.BACK)),
    ("back-nr", lambda: FlagPolicy(FlagSemantics.BACK, read_bypass=True)),
    ("full", lambda: FlagPolicy(FlagSemantics.FULL)),
    ("full-nr", lambda: FlagPolicy(FlagSemantics.FULL, read_bypass=True)),
    ("chains", ChainsPolicy),
]


#: seed 0 of every (policy, profile) cell runs in tier-1, the other
#: nineteen with the slow sweeps
SEEDS = [0] + [pytest.param(seed, marks=pytest.mark.slow)
               for seed in range(1, 20)]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("name,factory", POLICIES,
                             ids=[name for name, _ in POLICIES])
    @pytest.mark.parametrize("profile", ["none", "transient", "mixed"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_identical_to_full_scan_reference(self, name, factory,
                                                    profile, seed):
        """Same workload, same policy, same faults: the indexed driver's
        trace must be byte-identical to the reference full scan -- same
        dispatch order, same batching, same timestamps, same errors (a
        failed batch completes through the same wakeups as a good one) --
        and nothing may be left waiting once the queue has drained."""
        driver, fast = replay(DeviceDriver, factory, seed, profile=profile)
        _, reference = replay(ReferenceDriver, factory, seed,
                              profile=profile)
        assert fast == reference
        assert driver.idle
        assert not driver._waiters and not driver._policy_held
        assert not driver._writes

    def test_policy_must_declare_its_eligibility(self):
        """The index has no fallback scan: a policy that names none of the
        three wake-up structures is refused when the driver is built."""
        from repro.driver.ordering import OrderingPolicy

        class Undeclared(OrderingPolicy):
            def may_dispatch(self, request):
                return True

        engine = Engine()
        with pytest.raises(ValueError, match="eligibility"):
            DeviceDriver(engine, Disk(engine), Undeclared())


class TestBackwardTieBreak:
    def test_backward_concatenation_prefers_first_issued(self):
        """Two eligible reads end at the same LBN: the backward extension
        must absorb the first-issued one (the forward direction always did;
        the backward map used to let the last-issued win)."""
        engine = Engine()
        driver = DeviceDriver(engine, Disk(engine),
                              FlagPolicy(FlagSemantics.IGNORE))
        requests = {}

        def scenario():
            # occupy the disk so the reads queue up behind it, and park the
            # head at LBN 103 when it completes
            requests["blocker"] = driver.write(101, b"\x00" * 1024)
            yield engine.timeout(0.0001)  # let the blocker dispatch
            requests["first"] = driver.read(100, 4)    # ends at 104
            requests["second"] = driver.read(102, 2)   # also ends at 104
            requests["anchor"] = driver.read(104, 2)   # C-LOOK picks this

        engine.run_until(engine.process(scenario()), max_events=100_000)
        for request in requests.values():
            engine.run_until(request.done, max_events=100_000)

        anchor = requests["anchor"]
        first = requests["first"]
        second = requests["second"]
        # the anchor's batch absorbed the first-issued read...
        assert first.dispatch_time == anchor.dispatch_time
        assert first.complete_time == anchor.complete_time
        # ...and the later-issued one waited for the next dispatch
        assert second.dispatch_time > anchor.dispatch_time


class CountingChains(ChainsPolicy):
    """Counts the one question the driver asks chains (``may_dispatch`` is
    left to the base class, which raises: the driver must not ask it)."""

    def __init__(self):
        super().__init__()
        self.consultations = 0

    def blocking_deps(self, request):
        self.consultations += 1
        return super().blocking_deps(request)


class TestDispatchScaling:
    def test_policy_consultations_linear_in_queue_depth(self):
        """A chain of N dependent writes forces N serial dispatches with
        ~N requests queued throughout; the index must consult the policy
        O(1) times per request, not once per pending request per dispatch
        (the old full scan made ~N^2/2 calls here)."""
        depth = 300
        engine = Engine()
        policy = CountingChains()
        driver = DeviceDriver(engine, Disk(engine), policy)
        previous = None
        issued = []
        for index in range(depth):
            deps = frozenset((previous.id,)) if previous else None
            previous = driver.write(1000 + 4 * index, b"\x07" * 1024,
                                    depends_on=deps)
            issued.append(previous)
        engine.run_until(issued[-1].done, max_events=10_000_000)
        assert len(driver.trace) == depth
        assert policy.consultations <= 8 * depth


class CountingIgnore(FlagPolicy):
    """IGNORE that counts every per-request call it receives."""

    def __init__(self):
        super().__init__(FlagSemantics.IGNORE)
        self.calls = 0

    def on_issue(self, request):
        self.calls += 1

    def on_complete(self, request):
        self.calls += 1

    def may_dispatch(self, request):
        self.calls += 1
        return True

    def blocking_deps(self, request):
        self.calls += 1
        return []


class TestIgnoreIsNotCalled:
    @pytest.mark.parametrize("profile", ["none", "mixed"])
    def test_ignore_policy_sees_no_per_request_call(self, profile):
        """A policy that never holds anything back is neither told about
        issues and completions nor asked about requests: four of the six
        standard schemes run IGNORE, and its bookkeeping was pure cost."""
        policy = CountingIgnore()
        driver, trace = replay(DeviceDriver, lambda: policy, 3,
                               profile=profile)
        assert len(trace) == 120
        assert policy.calls == 0
