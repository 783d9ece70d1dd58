"""Tests for the clock synchronization service.

These exercise the headline §4 claim: Huygens-style sync holds gateway
clocks to sub-microsecond residuals over cloud links whose latencies
are hundreds of microseconds, while NTP through an asymmetric server
path is off by milliseconds.
"""

import numpy as np
import pytest

from repro.clocksync.ntp import NtpEstimator
from repro.clocksync.service import ClockSyncService
from repro.sim.engine import Simulator
from repro.sim.latency import GammaLatency, cloud_link
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MILLISECOND, SECOND


def build(n_clients=2, drift=40_000, offset=2_000_000, **service_kwargs):
    sim = Simulator()
    rngs = RngRegistry(31)
    network = Network(sim, rngs)
    reference = network.add_host("engine")
    clients = []
    for i in range(n_clients):
        client = network.add_host(f"g{i:02d}", drift_ppb=drift * (1 if i % 2 else -1), offset_ns=offset)
        network.connect_bidirectional("engine", client.name, cloud_link(140, 0.7, 80.0, 0.002, 5))
        clients.append(client)
    service = ClockSyncService(
        sim, network, reference, clients, rngs, use_coded_filter=False, **service_kwargs
    )
    return sim, service, clients


class TestHuygensService:
    def test_warm_start_converges_immediately(self):
        _, service, clients = build()
        service.warm_start(3)
        for client in clients:
            assert abs(client.clock.error_ns()) < 5_000

    def test_steady_state_residual_sub_microsecond(self):
        """The paper's 159 ns p99 claim, at our fidelity: sub-us p99."""
        sim, service, clients = build(n_clients=1)
        service.warm_start(3)
        service.start()
        sim.run(until=10 * SECOND)
        errors = np.abs(service._state[clients[0].name].error_samples_ns[200:])
        assert np.percentile(errors, 99) < 1_000
        assert np.percentile(errors, 50) < 300

    def test_drift_is_learned(self):
        sim, service, clients = build(n_clients=1, drift=40_000)
        service.warm_start(3)
        service.start()
        sim.run(until=5 * SECOND)
        rate = service._state[clients[0].name].rate_ppb
        assert abs(rate - (-40_000)) < 2_000  # client 0 gets negative drift

    def test_all_clients_tracked_independently(self):
        sim, service, clients = build(n_clients=3)
        service.warm_start(2)
        service.start()
        sim.run(until=3 * SECOND)
        for client in clients:
            assert service.estimates_for(client.name)

    def test_down_client_is_skipped(self):
        sim, service, clients = build(n_clients=2)
        service.warm_start(2)
        service.start()
        clients[0].crash()
        before = len(service._state[clients[0].name].error_samples_ns)
        sim.run(until=2 * SECOND)
        after = len(service._state[clients[0].name].error_samples_ns)
        assert after == before
        assert len(service._state[clients[1].name].error_samples_ns) > 0

    def test_error_percentile_requires_samples(self):
        _, service, _ = build()
        with pytest.raises(ValueError):
            service.error_percentile_ns(99)

    def test_invalid_intervals_rejected(self):
        sim = Simulator()
        rngs = RngRegistry(1)
        network = Network(sim, rngs)
        ref = network.add_host("r")
        with pytest.raises(ValueError):
            ClockSyncService(sim, network, ref, [], rngs, probe_interval_ns=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timestamp_noise_ns": -1},
            {"spacing_tolerance_ns": -1},
            {"coded_spacing_ns": -1},
            {"timestamp_noise_ns": 2**31},  # 2**32 + 1 noise values
        ],
    )
    def test_invalid_probe_parameters_rejected_at_construction(self, kwargs):
        sim = Simulator()
        rngs = RngRegistry(1)
        network = Network(sim, rngs)
        ref = network.add_host("r")
        with pytest.raises(ValueError):
            ClockSyncService(sim, network, ref, [], rngs, **kwargs)

    def test_widest_noise_span_accepted(self):
        _, service, clients = build(n_clients=1, timestamp_noise_ns=2**31 - 1)
        service.warm_start(1)  # probes draw noise from all 2**32 values
        state = service._state[clients[0].name]
        assert len(state.estimates) + state.failed_rounds == 1


class TestNtpService:
    def test_ntp_offsets_are_milliseconds(self):
        """Paper footnote 3: ~10 ms offsets make NTP unusable."""
        sim, service, clients = build(
            n_clients=1,
            estimator=NtpEstimator(),
            path_override=(
                GammaLatency(2 * MILLISECOND, 2.0, 2 * MILLISECOND),
                GammaLatency(2 * MILLISECOND, 2.0, 12 * MILLISECOND),
            ),
        )
        service.warm_start(2)
        service.start()
        sim.run(until=10 * SECOND)
        errors = np.abs(service._state[clients[0].name].error_samples_ns)
        # Milliseconds, not nanoseconds: 4+ orders of magnitude worse
        # than Huygens on the same testbed.
        assert np.percentile(errors, 50) > 1 * MILLISECOND
        assert np.percentile(errors, 99) < 100 * MILLISECOND
