"""Unit tests for the ideal store and the front-end channels."""

import copy
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.soa import FleetArrays
from repro.storage.capacitor import Capacitor, ChargeEfficiency, StorageStep
from repro.storage.frontend import DualChannelFrontEnd, SingleChannelFrontEnd
from repro.storage.ideal import IdealStorage


class LossFreeReference:
    """The ideal store's own loss-free arithmetic, from before it became
    a :class:`Capacitor` with identity parameters — the reference the
    capacitor op chain must reproduce bit for bit."""

    def __init__(self, capacity_j, initial_j):
        self.capacity_j = capacity_j
        self.energy_j = initial_j
        self.total_charged_j = 0.0
        self.total_delivered_j = 0.0
        self.total_wasted_j = 0.0

    def step(self, p_in_w, p_load_w, dt_s):
        charged = p_in_w * dt_s
        wasted = 0.0
        headroom = self.capacity_j - self.energy_j
        if charged > headroom:
            wasted = charged - headroom
            charged = headroom
        self.energy_j += charged
        demand = p_load_w * dt_s
        delivered = min(demand, self.energy_j)
        self.energy_j -= delivered
        self.total_charged_j += charged
        self.total_delivered_j += delivered
        self.total_wasted_j += wasted
        return StorageStep(
            delivered_j=delivered,
            charged_j=charged,
            leaked_j=0.0,
            wasted_j=wasted,
            deficit=delivered < demand - 1e-18,
        )

    def draw(self, energy_j):
        drawn = min(energy_j, self.energy_j)
        self.energy_j -= drawn
        self.total_delivered_j += drawn
        return drawn


def bits(value):
    """A float's exact bit pattern (tells 0.0 from -0.0)."""
    return struct.pack("<d", value)


LEDGER = ("energy_j", "total_charged_j", "total_delivered_j", "total_wasted_j")

#: Per-tick input powers: zero, denormal, ordinary, and far above what
#: the store can take in one tick (the at-capacity clip).
POWERS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 2.5e-320]),
    st.floats(0.0, 1e-3),
    st.floats(1e-3, 10.0),
)
#: Loads: none, ordinary, and more than the store holds (a deficit).
LOADS = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(1e-3, 10.0))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("step"), POWERS, LOADS),
        st.tuples(st.just("draw"), st.floats(0.0, 1e-5), st.just(0.0)),
    ),
    min_size=1,
    max_size=60,
)


class TestIdealStorage:
    def test_lossless_roundtrip(self):
        store = IdealStorage(1e-6)
        store.step(1e-3, 0.0, 1e-4)
        assert store.energy_j == pytest.approx(1e-7)
        result = store.step(0.0, 1e-3, 1e-4)
        assert result.delivered_j == pytest.approx(1e-7)
        assert store.energy_j == pytest.approx(0.0, abs=1e-18)

    def test_capacity_bound(self):
        store = IdealStorage(1e-9)
        result = store.step(1e-3, 0.0, 1e-3)
        assert store.energy_j == pytest.approx(1e-9)
        assert result.wasted_j == pytest.approx(1e-6 - 1e-9, rel=1e-6)

    def test_deficit(self):
        store = IdealStorage(1e-6)
        assert store.step(0.0, 1.0, 1e-3).deficit

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealStorage(0.0)
        with pytest.raises(ValueError):
            IdealStorage(1e-6, initial_j=2e-6)
        store = IdealStorage(1e-6)
        with pytest.raises(ValueError):
            store.step(-1.0, 0.0, 1e-3)

    def test_draw(self):
        store = IdealStorage(1e-6, initial_j=1e-6)
        assert store.draw(4e-7) == pytest.approx(4e-7)
        assert store.energy_j == pytest.approx(6e-7)

    def test_is_a_capacitor_with_exact_capacity(self):
        store = IdealStorage(3e-7)
        assert isinstance(store, Capacitor)
        assert store.capacity_j == store.energy_max_j == 3e-7
        assert store.voltage_v == 1.0
        for name in ("step", "draw", "charge_many", "chain",
                     "soa_state", "soa_restore"):
            assert name not in vars(IdealStorage), name

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.floats(1e-12, 1e-3),
        fill=st.floats(0.0, 1.0),
        dt=st.sampled_from([1e-4, 1e-3, 3.7e-5]),
        ops=OPS,
    )
    def test_matches_the_loss_free_reference_bit_for_bit(
        self, capacity, fill, dt, ops
    ):
        initial = capacity * fill
        store = IdealStorage(capacity, initial_j=initial)
        reference = LossFreeReference(capacity, initial)
        for op, amount, load in ops:
            if reference.energy_j > capacity:
                # A clip can round the stored energy one ulp past
                # capacity (in both models).  The reference pulled it
                # back with a negative charge on its next zero-input
                # tick; the capacitor chain skips zero-input charging,
                # as the fleet and batch kernels always did.
                break
            if op == "draw":
                assert bits(store.draw(amount)) == bits(reference.draw(amount))
            else:
                got = store.step(amount, load, dt)
                want = reference.step(amount, load, dt)
                assert got.deficit == want.deficit
                for field in ("delivered_j", "charged_j", "leaked_j", "wasted_j"):
                    assert bits(getattr(got, field)) == bits(getattr(want, field))
            for field in LEDGER:
                assert bits(getattr(store, field)) == bits(getattr(reference, field))
            assert store.total_leaked_j == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.floats(1e-12, 1e-3),
        fill=st.floats(0.0, 1.0),
        powers=st.lists(POWERS, min_size=1, max_size=80),
        target_fill=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_charge_many_matches_the_reference_step_loop(
        self, capacity, fill, powers, target_fill
    ):
        dt = 1e-4
        initial = capacity * fill
        target = None if target_fill is None else capacity * target_fill
        store = IdealStorage(capacity, initial_j=initial)
        reference = LossFreeReference(capacity, initial)
        ticks, crossed = store.charge_many(powers, 0, len(powers), dt, target)
        expect_ticks, expect_crossed = 0, False
        for p in powers:
            if reference.energy_j > capacity:
                return  # see the overshoot note in the step property
            # The reference stops before the step that reaches the
            # target; the platform's own tick() runs that step.
            trial = copy.copy(reference)
            trial.step(p, 0.0, dt)
            if target is not None and trial.energy_j >= target:
                expect_crossed = True
                break
            reference = trial
            expect_ticks += 1
        assert (ticks, crossed) == (expect_ticks, expect_crossed)
        for field in LEDGER:
            assert bits(getattr(store, field)) == bits(getattr(reference, field))

    def test_every_engine_agrees_past_a_one_ulp_overshoot(self):
        """step, charge_many and the fleet's vector step are one chain.

        This capacity and energy make the at-capacity clip round one
        ulp past capacity; every engine must then keep the same bits.
        """
        capacity = (1.5 + 2.0 ** -52) * 2.0 ** -20
        initial = (0.25 + 3 * 2.0 ** -53) * 2.0 ** -20
        powers = [1.0, 0.0, 0.0, 5e-324, 0.0]
        stepped = IdealStorage(capacity, initial_j=initial)
        for p in powers:
            stepped.step(p, 0.0, 1e-4)
        assert stepped.energy_j > capacity
        bulk = IdealStorage(capacity, initial_j=initial)
        bulk.charge_many(powers, 0, len(powers), 1e-4)
        rows = FleetArrays(1, 1e-4)
        vector = IdealStorage(capacity, initial_j=initial)
        rows.set_params(0, vector, 0)
        rows.load_row(0, vector, np.inf)
        for p in powers:
            rows.charge_tick(np.array([p]))
        rows.store_row(0, vector)
        for other in (bulk, vector):
            for field in LEDGER[:2] + ("total_wasted_j", "total_leaked_j"):
                assert bits(getattr(other, field)) == bits(getattr(stepped, field))


class TestSingleChannel:
    def test_pays_conversion_twice_conceptually(self):
        """All load energy must route through the (lossy) capacitor."""
        cap = Capacitor(
            1e-6, v_initial_v=0.0, leak_resistance_ohm=1e18,
            efficiency=ChargeEfficiency(0.5, 0.5, 0.0, 1.0),
        )
        channel = SingleChannelFrontEnd(cap)
        result = channel.step(p_in_w=100e-6, p_load_w=40e-6, dt_s=1e-3)
        # 100 uW in at 50% efficiency = 50 uW stored; 40 uW load fits.
        assert result.delivered_j == pytest.approx(40e-9)
        assert not result.deficit

    def test_deficit_propagates(self):
        cap = Capacitor(1e-6, leak_resistance_ohm=1e18)
        channel = SingleChannelFrontEnd(cap)
        assert channel.step(0.0, 1e-3, 1e-3).deficit


class TestDualChannel:
    def make_lossy_cap(self):
        return Capacitor(
            1e-6, v_initial_v=1.0, leak_resistance_ohm=1e18,
            efficiency=ChargeEfficiency(0.5, 0.5, 0.0, 1.0),
        )

    def test_bypass_feeds_load_directly(self):
        channel = DualChannelFrontEnd(self.make_lossy_cap(), bypass_efficiency=1.0)
        result = channel.step(p_in_w=100e-6, p_load_w=60e-6, dt_s=1e-3)
        assert result.bypassed_j == pytest.approx(60e-9)
        assert result.delivered_j == pytest.approx(60e-9)

    def test_dual_beats_single_for_matched_load(self):
        """With income ~ load, the bypass avoids the double conversion."""
        single_cap = self.make_lossy_cap()
        dual_cap = self.make_lossy_cap()
        single = SingleChannelFrontEnd(single_cap)
        dual = DualChannelFrontEnd(dual_cap, bypass_efficiency=0.95)
        delivered_single = delivered_dual = 0.0
        for _ in range(200):
            delivered_single += single.step(50e-6, 50e-6, 1e-4).delivered_j
            delivered_dual += dual.step(50e-6, 50e-6, 1e-4).delivered_j
        # Single channel drains its initial store (50% in-efficiency
        # cannot sustain the load); dual channel sustains it.
        assert delivered_dual > delivered_single
        assert dual_cap.energy_j > single_cap.energy_j

    def test_idle_load_charges_storage(self):
        cap = self.make_lossy_cap()
        channel = DualChannelFrontEnd(cap)
        start = cap.energy_j
        result = channel.step(p_in_w=100e-6, p_load_w=0.0, dt_s=1e-3)
        assert result.delivered_j == 0.0
        assert cap.energy_j > start

    def test_shortfall_drawn_from_storage(self):
        cap = self.make_lossy_cap()
        channel = DualChannelFrontEnd(cap, bypass_efficiency=1.0)
        result = channel.step(p_in_w=10e-6, p_load_w=50e-6, dt_s=1e-3)
        assert result.delivered_j == pytest.approx(50e-9)
        assert result.bypassed_j == pytest.approx(10e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DualChannelFrontEnd(self.make_lossy_cap(), bypass_efficiency=0.0)
        channel = DualChannelFrontEnd(self.make_lossy_cap())
        with pytest.raises(ValueError):
            channel.step(-1.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            channel.step(0.0, 0.0, 0.0)
