"""Contract tests: ``process_batch`` == a ``process_order`` loop.

Both wrap the one matching loop and differ only in their trade sink
and in how they report per-order outcomes, so run the same random
order stream through both -- on a plain core and on cores with
self-trade prevention, a circuit breaker and a risk policy -- and
demand identical books, trades, trade ids, settlement, counters, and
status tallies.
"""

import itertools

import numpy as np
import pytest

from repro.core.marketdata import TradeRecord
from repro.core.matching import BatchMatchStats, MatchingEngineCore
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.risk import MarginRiskPolicy
from repro.core.surveillance import CircuitBreaker
from repro.core.types import OrderStatus, OrderType, Side, TimeInForce

SYMBOLS = ("AAA", "BBB", "CCC")
PARTICIPANTS = tuple(f"p{i}" for i in range(6))


def _random_specs(seed, n):
    """Order field dicts (specs), so each core gets fresh Order objects."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        roll = rng.random()
        symbol = "ZZZ" if roll < 0.02 else SYMBOLS[int(rng.integers(len(SYMBOLS)))]
        market = rng.random() < 0.08
        ioc = rng.random() < 0.15
        specs.append(
            dict(
                client_order_id=i + 1,
                participant_id=PARTICIPANTS[int(rng.integers(len(PARTICIPANTS)))],
                symbol=symbol,
                side=Side.BUY if rng.random() < 0.5 else Side.SELL,
                order_type=OrderType.MARKET if market else OrderType.LIMIT,
                quantity=int(rng.integers(1, 50)),
                limit_price=None if market else int(10_000 + rng.integers(-30, 31)),
                time_in_force=TimeInForce.IOC if ioc and not market else TimeInForce.GTC,
                gateway_id="g0",
                gateway_timestamp=100 * (len(specs) + 1),
                gateway_seq=len(specs),
            )
        )
        if rng.random() < 0.05 and specs:
            # Duplicate an earlier (participant, coid) to hit the
            # duplicate-order-id reject when the original still rests.
            dup = dict(specs[int(rng.integers(len(specs)))])
            dup["gateway_timestamp"] = 100 * (len(specs) + 1)
            dup["gateway_seq"] = len(specs)
            specs.append(dup)
    return specs


CONFIGURED = {
    "stp": lambda: dict(self_trade_prevention=True),
    "breaker": lambda: dict(
        circuit_breaker=CircuitBreaker(threshold=0.001, window_ns=5_000, halt_ns=2_000)
    ),
    "risk": lambda: dict(risk_policy=MarginRiskPolicy(max_position=60)),
    "all": lambda: dict(
        self_trade_prevention=True,
        circuit_breaker=CircuitBreaker(threshold=0.001, window_ns=5_000, halt_ns=2_000),
        risk_policy=MarginRiskPolicy(max_position=60),
    ),
}


def _build_core(**core_kwargs):
    portfolio = PortfolioMatrix()
    for pid in PARTICIPANTS:
        portfolio.open_account(pid, cash=0)
    return MatchingEngineCore(
        SYMBOLS, portfolio, trade_id_counter=itertools.count(1), **core_kwargs
    )


def _book_state(core):
    state = {}
    for symbol, book in core.books.items():
        state[symbol] = book.depth_snapshot(50)
    return state


def _portfolio_state(core):
    return {
        pid: (core.portfolio.account(pid).cash, dict(core.portfolio.account(pid).positions))
        for pid in PARTICIPANTS
    }


STATUS_FIELD = {
    OrderStatus.ACCEPTED: "accepted",
    OrderStatus.PARTIALLY_FILLED: "partially_filled",
    OrderStatus.FILLED: "filled",
    OrderStatus.CANCELLED: "cancelled",
    OrderStatus.REJECTED: "rejected",
}


def _counters(core):
    return (
        core.orders_processed,
        core.halt_rejects,
        core.risk_rejects,
        core.stp_cancellations,
        dict(core.last_trade_price),
    )


def _assert_batch_equals_scalar(seed, configure=dict):
    """Run one random stream through both wrappers of the matching
    loop; return the scalar core for path-coverage checks."""
    specs = _random_specs(seed, 400)
    times = [100 * (i + 1) for i in range(len(specs))]

    scalar = _build_core(**configure())
    expected = BatchMatchStats()
    scalar_trades = []
    for spec, t in zip(specs, times):
        result = scalar.process_order(Order(**spec), t)
        expected.orders += 1
        field = STATUS_FIELD[result.confirmation.status]
        setattr(expected, field, getattr(expected, field) + 1)
        expected.trades += len(result.trades)
        expected.traded_qty += result.traded_quantity
        expected.notional += sum(tr.price * tr.quantity for tr in result.trades)
        scalar_trades.extend(
            (tr.trade_id, tr.symbol, tr.price, tr.quantity, tr.buyer, tr.seller)
            for tr in result.trades
        )

    batched = _build_core(**configure())
    batch_trades = []

    def settle(symbol, price, qty, buyer, seller, trade_id):
        # Settlement is the sink's job; risk checks read the result.
        batched.portfolio.apply_trade(
            TradeRecord(
                trade_id=trade_id,
                symbol=symbol,
                price=price,
                quantity=qty,
                buyer=buyer.participant_id,
                seller=seller.participant_id,
                buy_client_order_id=buyer.client_order_id,
                sell_client_order_id=seller.client_order_id,
                executed_local=0,
                aggressor_is_buy=False,
            )
        )
        batch_trades.append(
            (trade_id, symbol, price, qty, buyer.participant_id, seller.participant_id)
        )

    stats = batched.process_batch([Order(**spec) for spec in specs], times, settle)

    assert stats == expected
    assert batch_trades == scalar_trades
    assert _book_state(batched) == _book_state(scalar)
    assert _counters(batched) == _counters(scalar)
    assert _portfolio_state(batched) == _portfolio_state(scalar)
    # Both paths consumed the same number of trade ids.
    assert next(batched._trade_ids) == next(scalar._trade_ids)
    return scalar


class TestProcessBatchEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 2021, 90210])
    def test_matches_scalar_path(self, seed):
        _assert_batch_equals_scalar(seed)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("config", sorted(CONFIGURED))
    def test_configured_core_matches_scalar_path(self, config, seed):
        scalar = _assert_batch_equals_scalar(seed, CONFIGURED[config])
        # Each configured path must actually fire on this stream.
        if config in ("stp", "all"):
            assert scalar.stp_cancellations > 0
        if config in ("breaker", "all"):
            assert scalar.halt_rejects > 0
        if config in ("risk", "all"):
            assert scalar.risk_rejects > 0

    def test_stats_merge_and_dict_roundtrip(self):
        a = BatchMatchStats(orders=2, filled=1, accepted=1, trades=3, traded_qty=9, notional=90)
        b = BatchMatchStats(orders=1, rejected=1)
        a.merge(b)
        assert a.orders == 3 and a.rejected == 1
        assert a.to_dict()["traded_qty"] == 9
