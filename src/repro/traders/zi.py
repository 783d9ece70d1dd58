"""Zero-intelligence (ZI) order flow.

The canonical synthetic-market workload (Gode & Sunder style): each
opportunity places an order on a uniformly random symbol and side at a
price drawn around the current reference price.  Despite having no
strategy, ZI flow produces realistic book dynamics -- a random-walk
mid price, two-sided depth, and a steady stream of crossings -- which
is all the exchange-side evaluations need.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.participant import Participant
from repro.core.types import Side, Symbol
from repro.sim.rng import integers_draw
from repro.traders.base import Strategy


def zi_bulk_fields(
    rng: np.random.Generator,
    n: int,
    n_symbols: int,
    min_qty: int = 1,
    max_qty: int = 100,
    aggression: float = 0.18,
    market_order_fraction: float = 0.10,
    price_sigma_ticks: float = 15.0,
) -> dict:
    """Draw ``n`` ZI order rows at once (the batched-kernel workload).

    Vectorized mirror of :meth:`ZeroIntelligenceStrategy.on_order_opportunity`'s
    distributions for the no-cancel case: uniform symbol and side,
    uniform quantity, a ``market_order_fraction`` coin, and a limit
    price expressed as a signed tick ``offset`` relative to whatever
    reference price applies at match time -- aggressive rows price 1-3
    ticks through the touch, passive rows rest
    ``1 + |round(N(0, sigma))|`` ticks behind, with the sign already
    folded in for the drawn side.  Deferring the reference-price
    addition to match time is what lets a sharded run pre-draw whole
    chunks without knowing the future price path: feedback moves the
    center, never the draws.

    The draw order (symbol, side, qty, market, aggression, through,
    behind) is fixed and size-independent per call, part of the batched
    kernel's determinism contract.
    """
    symbol = rng.integers(0, n_symbols, size=n)
    side_buy = rng.random(size=n) < 0.5
    qty = rng.integers(min_qty, max_qty + 1, size=n)
    market = rng.random(size=n) < market_order_fraction
    aggressive = rng.random(size=n) < aggression
    through = rng.integers(1, 4, size=n)
    behind = 1 + np.abs(np.rint(rng.normal(0.0, price_sigma_ticks, size=n)).astype(np.int64))
    offset = np.where(aggressive, through, -behind)
    offset = np.where(side_buy, offset, -offset)
    return {
        "symbol": symbol,
        "side_buy": side_buy,
        "qty": qty,
        "market": market,
        "offset": offset,
    }


class ZeroIntelligenceStrategy(Strategy):
    """Random orders around the reference price.

    Parameters
    ----------
    symbols:
        Symbols this trader is active in (usually its subscriptions).
    fallback_price:
        Reference price used before any market data arrives.
    price_sigma_ticks:
        Scale of the passive limit-price offset behind the reference;
        larger values build deeper, wider books.
    min_qty, max_qty:
        Uniform order-size range.
    aggression:
        Probability a limit order is priced *through* the touch (and
        so trades immediately against the book).  The realized
        trades-per-order ratio tracks ``aggression +
        market_order_fraction``; the paper's second deployment saw
        ~8% (4.2M orders, 330k trades), course-bot flow considerably
        more.
    market_order_fraction:
        Probability an opportunity becomes a market order.
    cancel_fraction:
        Probability an opportunity instead cancels a working order.
    """

    def __init__(
        self,
        symbols: Sequence[Symbol],
        fallback_price: int,
        price_sigma_ticks: float = 15.0,
        min_qty: int = 1,
        max_qty: int = 100,
        aggression: float = 0.18,
        market_order_fraction: float = 0.10,
        cancel_fraction: float = 0.05,
    ) -> None:
        if not symbols:
            raise ValueError("ZI trader needs at least one symbol")
        if fallback_price <= 0:
            raise ValueError(f"fallback price must be positive, got {fallback_price}")
        if not 0 < min_qty <= max_qty:
            raise ValueError(f"bad quantity range [{min_qty}, {max_qty}]")
        if not 0.0 <= aggression <= 1.0:
            raise ValueError(f"aggression must be in [0,1], got {aggression}")
        if market_order_fraction + cancel_fraction > 1.0:
            raise ValueError("market + cancel fractions exceed 1")
        self.symbols: List[Symbol] = list(symbols)
        self.fallback_price = fallback_price
        self.price_sigma_ticks = price_sigma_ticks
        self.min_qty = min_qty
        self.max_qty = max_qty
        self.aggression = aggression
        self.market_order_fraction = market_order_fraction
        self.cancel_fraction = cancel_fraction
        self._randint = None  # integers_draw bound to the last rng seen

    def on_start(self, participant: Participant) -> None:
        participant.subscribe(self.symbols)

    def _reference(self, participant: Participant, symbol: Symbol) -> int:
        ref = participant.view(symbol).reference_price
        return ref if ref is not None and ref > 0 else self.fallback_price

    def on_order_opportunity(self, participant: Participant, rng: np.random.Generator) -> None:
        roll = rng.random()
        if roll < self.cancel_fraction and participant.working:
            # Cancel the oldest working order.
            client_order_id = next(iter(participant.working))
            order = participant.working[client_order_id]
            participant.cancel(client_order_id, order.symbol)
            return

        randint = self._randint
        if randint is None or randint.generator is not rng:
            randint = self._randint = integers_draw(rng)
        symbol = self.symbols[randint(0, len(self.symbols))]
        side = Side.BUY if rng.random() < 0.5 else Side.SELL
        quantity = randint(self.min_qty, self.max_qty + 1)
        if roll < self.cancel_fraction + self.market_order_fraction:
            participant.submit_market(symbol, side, quantity)
            return
        reference = self._reference(participant, symbol)
        if rng.random() < self.aggression:
            # Marketable: price a couple of ticks through the touch.
            through = randint(1, 4)
            offset = through if side is Side.BUY else -through
        else:
            # Passive: rest behind the reference price.
            behind = 1 + abs(int(round(rng.normal(0.0, self.price_sigma_ticks))))
            offset = -behind if side is Side.BUY else behind
        price = max(1, reference + offset)
        participant.submit_limit(symbol, side, quantity, price)
