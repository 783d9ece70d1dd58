"""Continuous price-time matching.

The algorithm "used by most exchanges" (paper §2.1): an incoming bid
(ask) matches whenever its price is greater (less) than or equal to the
lowest ask (highest bid); executions occur at the *resting* order's
price; unmatched limit remainders rest in the book; ties at one price
go to the earlier gateway timestamp.

This module is pure logic -- no simulator, no network.  The sharded
exchange server (:mod:`repro.core.exchange`) drives one
:class:`MatchingEngineCore` per shard and handles timing, CPU cost, and
dissemination around it, so the matching rules themselves are
exhaustively testable in isolation (including with hypothesis).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.book import LimitOrderBook
from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.core.messages import OrderConfirmation, StampedCancel, TradeConfirmation
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderStatus, OrderType, RejectReason, Side, Symbol, TimeInForce

#: Receives every execution as ``(symbol, price, quantity, buyer,
#: seller, trade_id)``; ``buyer`` and ``seller`` are the two orders.
TradeSink = Callable[[Symbol, int, int, Order, Order, int], None]

#: How one order left the matching loop: the status it ended in, or
#: the reason it was refused.
Outcome = Union[OrderStatus, RejectReason]

# Enum members used per order, bound once: attribute access on an Enum
# class is a descriptor call, several times dearer than a global load.
_BUY, _LIMIT, _MARKET = Side.BUY, OrderType.LIMIT, OrderType.MARKET
_GTC, _IOC = TimeInForce.GTC, TimeInForce.IOC
_ACCEPTED, _PARTIAL, _FILLED = OrderStatus.ACCEPTED, OrderStatus.PARTIALLY_FILLED, OrderStatus.FILLED
_CANCELLED, _REJECTED = OrderStatus.CANCELLED, OrderStatus.REJECTED


@dataclass
class BatchMatchStats:
    """Aggregate outcome of a :meth:`MatchingEngineCore.process_batch`.

    The counts are the status histogram of the confirmations a
    ``process_order`` loop would have produced: ``rejected`` counts
    every refused order (unknown symbol, duplicate id, halt, risk) plus
    market orders that found no liquidity; ``cancelled`` counts
    unfilled IOC orders; ``filled`` / ``partially_filled`` /
    ``accepted`` follow ``OrderStatus``.
    """

    orders: int = 0
    accepted: int = 0
    partially_filled: int = 0
    filled: int = 0
    cancelled: int = 0
    rejected: int = 0
    trades: int = 0
    traded_qty: int = 0
    notional: int = 0

    def merge(self, other: "BatchMatchStats") -> None:
        self.orders += other.orders
        self.accepted += other.accepted
        self.partially_filled += other.partially_filled
        self.filled += other.filled
        self.cancelled += other.cancelled
        self.rejected += other.rejected
        self.trades += other.trades
        self.traded_qty += other.traded_qty
        self.notional += other.notional

    def to_dict(self) -> Dict[str, int]:
        return {
            "orders": self.orders,
            "accepted": self.accepted,
            "partially_filled": self.partially_filled,
            "filled": self.filled,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "trades": self.trades,
            "traded_qty": self.traded_qty,
            "notional": self.notional,
        }


@dataclass
class MatchResult:
    """Everything one order produced: a confirmation, zero or more
    trades, the per-counterparty trade confirmations, and any resting
    orders cancelled by self-trade prevention."""

    confirmation: OrderConfirmation
    trades: List[TradeRecord] = field(default_factory=list)
    trade_confirmations: List[TradeConfirmation] = field(default_factory=list)
    stp_cancels: List[Order] = field(default_factory=list)

    @property
    def traded_quantity(self) -> int:
        return sum(trade.quantity for trade in self.trades)


def _trade_conf(trade: TradeRecord, order: Order, now_local: int) -> TradeConfirmation:
    """One counterparty's confirmation of ``trade``."""
    return TradeConfirmation(
        participant_id=order.participant_id,
        client_order_id=order.client_order_id,
        trade_id=trade.trade_id,
        symbol=trade.symbol,
        is_buy=order.is_buy,
        quantity=trade.quantity,
        price=trade.price,
        engine_timestamp=now_local,
    )


class MatchingEngineCore:
    """Order books + matching rules for one set of symbols (one shard).

    Parameters
    ----------
    symbols:
        The symbols this core is responsible for.
    portfolio:
        The (shared) portfolio matrix to settle trades into.
    trade_id_counter:
        Shared iterator yielding globally unique trade ids; pass the
        same iterator to every shard.
    snapshot_depth:
        Price levels per side included in book snapshots.
    """

    def __init__(
        self,
        symbols: Iterable[Symbol],
        portfolio: PortfolioMatrix,
        trade_id_counter: Optional[Iterable[int]] = None,
        snapshot_depth: int = 5,
        risk_policy=None,
        self_trade_prevention: bool = False,
        circuit_breaker=None,
    ) -> None:
        self.books: Dict[Symbol, LimitOrderBook] = {s: LimitOrderBook(s) for s in symbols}
        self.portfolio = portfolio
        self._trade_ids = iter(trade_id_counter) if trade_id_counter is not None else itertools.count(1)
        self.snapshot_depth = snapshot_depth
        self.risk_policy = risk_policy
        #: When True, an incoming order never executes against the same
        #: participant's resting order; the *resting* order is cancelled
        #: instead (the common "cancel resting" STP policy).  The course
        #: deployments ran without it (self-trades net to zero).
        self.self_trade_prevention = self_trade_prevention
        #: Optional :class:`repro.core.surveillance.CircuitBreaker`;
        #: halted symbols reject incoming orders, resting orders stay.
        self.circuit_breaker = circuit_breaker
        self.orders_processed: int = 0
        self.risk_rejects: int = 0
        self.halt_rejects: int = 0
        self.stp_cancellations: int = 0
        self.last_trade_price: Dict[Symbol, int] = {}

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def process_order(self, order: Order, now_local: int) -> MatchResult:
        """Run one order through continuous price-time matching."""
        trades: List[TradeRecord] = []
        confs: List[TradeConfirmation] = []
        stp_cancels: List[Order] = []
        settle = self.portfolio.apply_trade
        is_buy = order.is_buy

        def sink(symbol, price, quantity, buyer, seller, trade_id):
            trade = TradeRecord(
                trade_id=trade_id,
                symbol=symbol,
                price=price,
                quantity=quantity,
                buyer=buyer.participant_id,
                seller=seller.participant_id,
                buy_client_order_id=buyer.client_order_id,
                sell_client_order_id=seller.client_order_id,
                executed_local=now_local,
                aggressor_is_buy=is_buy,
            )
            settle(trade)
            trades.append(trade)
            confs.append(_trade_conf(trade, order, now_local))
            confs.append(_trade_conf(trade, seller if is_buy else buyer, now_local))

        outcomes: List[Outcome] = []
        self._match_orders((order,), (now_local,), sink, outcomes, stp_cancels)
        outcome = outcomes[0]
        if isinstance(outcome, RejectReason):
            status, reason, remaining = _REJECTED, outcome, order.remaining
        else:
            status, reason = outcome, None
            rests = order.order_type is _LIMIT and order.time_in_force is _GTC
            remaining = order.remaining if rests else 0
        confirmation = OrderConfirmation(
            participant_id=order.participant_id,
            client_order_id=order.client_order_id,
            symbol=order.symbol,
            status=status,
            filled=order.quantity - order.remaining,
            remaining=remaining,
            engine_timestamp=now_local,
            reason=reason,
        )
        return MatchResult(confirmation, trades, confs, stp_cancels)

    def process_batch(
        self, orders: Sequence[Order], times: Sequence[int], on_trade: TradeSink
    ) -> BatchMatchStats:
        """Match a pre-ordered batch of orders without per-order results.

        The same loop as ``process_order(order, t)`` for each ``(order,
        t)`` pair in sequence -- same book mutations, trade ids, counters
        and ``last_trade_price`` -- minus the per-order confirmation
        objects.  Settlement is the caller's: every execution goes to
        ``on_trade(symbol, price, quantity, buyer, seller, trade_id)``
        and nothing is applied to the portfolio matrix.  This is the
        batched kernel's inner loop (:mod:`repro.core.shardrun`).

        ``times[i]`` is the engine-local timestamp for ``orders[i]``;
        the batch must already be in processing order (the caller owns
        sequencing).
        """
        outcomes: List[Outcome] = []
        trades, traded_qty, notional = self._match_orders(orders, times, on_trade, outcomes, [])
        count = outcomes.count
        stats = BatchMatchStats(
            orders=len(outcomes),
            accepted=count(_ACCEPTED),
            partially_filled=count(_PARTIAL),
            filled=count(_FILLED),
            cancelled=count(_CANCELLED),
            trades=trades,
            traded_qty=traded_qty,
            notional=notional,
        )
        stats.rejected = stats.orders - (
            stats.accepted + stats.partially_filled + stats.filled + stats.cancelled
        )
        return stats

    def _match_orders(
        self,
        orders: Iterable[Order],
        times: Iterable[int],
        sink: TradeSink,
        outcomes: List[Outcome],
        stp_cancels: List[Order],
    ) -> Tuple[int, int, int]:
        """The one continuous price-time loop.

        For each order in sequence: the pre-checks (unknown symbol,
        duplicate id, halt, risk), the sweep against the opposite side,
        then the rest/IOC/market disposition.  Each execution consumes
        one trade id and goes to ``sink(symbol, price, quantity, buyer,
        seller, trade_id)``; each order appends one outcome to
        ``outcomes`` -- the :class:`OrderStatus` it ended in, or the
        :class:`RejectReason` that refused it.  Resting orders cancelled
        by self-trade prevention are appended to ``stp_cancels``.
        Returns the executions' count, total quantity and notional.
        """
        books = self.books
        trade_ids = self._trade_ids
        last_trade_price = self.last_trade_price
        breaker = self.circuit_breaker
        risk_policy = self.risk_policy
        portfolio = self.portfolio
        stp = self.self_trade_prevention
        record = outcomes.append
        trades = traded_qty = notional = 0
        for order, now_local in zip(orders, times):
            symbol = order.symbol
            participant = order.participant_id
            book = books.get(symbol)
            if book is None:
                record(RejectReason.UNKNOWN_SYMBOL)
                continue
            if book.is_resting(participant, order.client_order_id):
                record(RejectReason.DUPLICATE_ORDER_ID)
                continue
            if breaker is not None and breaker.is_halted(symbol, now_local):
                self.halt_rejects += 1
                record(RejectReason.SYMBOL_HALTED)
                continue
            if risk_policy is not None and portfolio.has_account(participant):
                reason = risk_policy.check(
                    order, portfolio.account(participant), self.reference_price(symbol)
                )
                if reason is not None:
                    self.risk_rejects += 1
                    record(reason)
                    continue
            self.orders_processed += 1
            side = order.side
            limit = order.limit_price
            is_buy = side is _BUY
            opposite = book.side(side.opposite)
            while order.remaining > 0 and book.crosses(side, limit):
                level = opposite.best_level()
                resting = level.front()
                if stp and resting.participant_id == participant:
                    level.pop_front()
                    book.forget(resting)
                    stp_cancels.append(resting)
                    self.stp_cancellations += 1
                    continue
                quantity = min(order.remaining, resting.remaining)
                price = level.price
                order.remaining -= quantity
                resting.remaining -= quantity
                if resting.remaining == 0:
                    level.pop_front()
                    book.forget(resting)
                else:
                    level.reduce(quantity)
                if is_buy:
                    sink(symbol, price, quantity, order, resting, next(trade_ids))
                else:
                    sink(symbol, price, quantity, resting, order, next(trade_ids))
                last_trade_price[symbol] = price
                trades += 1
                traded_qty += quantity
                notional += price * quantity
                if breaker is not None and breaker.on_trade(symbol, price, now_local):
                    # The triggering execution stands; the rest of the
                    # sweep stops with the halt.
                    break
            remaining = order.remaining
            if order.order_type is _MARKET:
                # A market remainder never rests.
                if remaining == order.quantity:
                    record(RejectReason.NO_LIQUIDITY)
                elif remaining == 0:
                    record(_FILLED)
                else:
                    record(_PARTIAL)
                continue
            if remaining > 0 and order.time_in_force is _GTC:
                book.add_resting(order)
            if remaining == 0:
                record(_FILLED)
            elif remaining < order.quantity:
                record(_PARTIAL)
            elif order.time_in_force is _IOC:
                record(_CANCELLED)
            else:
                record(_ACCEPTED)
        return trades, traded_qty, notional

    # ------------------------------------------------------------------
    # Cancels
    # ------------------------------------------------------------------
    def process_cancel(self, cancel: StampedCancel, now_local: int) -> OrderConfirmation:
        """Cancel a resting order; rejects unknown/filled/foreign orders."""
        book = self.books.get(cancel.symbol)
        order = (
            book.cancel(cancel.participant_id, cancel.client_order_id)
            if book is not None
            else None
        )
        if order is None:
            return OrderConfirmation(
                participant_id=cancel.participant_id,
                client_order_id=cancel.client_order_id,
                symbol=cancel.symbol,
                status=OrderStatus.REJECTED,
                filled=0,
                remaining=0,
                engine_timestamp=now_local,
                reason=RejectReason.UNKNOWN_ORDER,
            )
        return OrderConfirmation(
            participant_id=cancel.participant_id,
            client_order_id=cancel.client_order_id,
            symbol=cancel.symbol,
            status=OrderStatus.CANCELLED,
            filled=order.quantity - order.remaining,
            remaining=order.remaining,
            engine_timestamp=now_local,
        )

    # ------------------------------------------------------------------
    # Market data
    # ------------------------------------------------------------------
    def snapshot(self, symbol: Symbol, now_local: int) -> BookSnapshot:
        """Depth snapshot of one symbol's book."""
        book = self.books[symbol]
        bids, asks = book.depth_snapshot(self.snapshot_depth)
        return BookSnapshot(symbol=symbol, bids=bids, asks=asks, taken_local=now_local)

    def reference_price(self, symbol: Symbol) -> Optional[int]:
        """Last trade price, falling back to the book midpoint."""
        last = self.last_trade_price.get(symbol)
        if last is not None:
            return last
        book = self.books[symbol]
        bid, ask = book.best_bid(), book.best_ask()
        if bid is not None and ask is not None:
            return (bid + ask) // 2
        return bid if bid is not None else ask

    def __repr__(self) -> str:
        return f"MatchingEngineCore(symbols={len(self.books)}, processed={self.orders_processed})"
