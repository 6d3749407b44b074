"""Cost-based admission control.

The planner's closed-form estimators (:mod:`repro.join.planner`) predict
what a request's :class:`~repro.metrics.CostSummary` will charge *before
any work runs* — the quantitative-prediction layer Section 5 of the
paper calls for, pointed here at a production concern: per-request cost
budgets. SOLAR (PAPERS.md) motivates the same move for distributed
joins: use modelled/measured costs to bound future work rather than
discovering overruns mid-flight.

The controller resolves each join request to one of three actions:

* **admit** — the requested method's predicted I/O fits the budget;
* **downgrade** — it does not, but a cheaper method's does (the service
  runs that method and records the downgrade through the existing
  ``degraded``/``fallback_from`` machinery);
* **reject** — nothing fits; the request fails fast with a typed
  :class:`~repro.errors.BudgetExceededError`, having cost only a
  metadata-driven estimate.

Window queries are admitted on a root-to-leaf descent estimate — they
cannot be downgraded, only rejected by an (unusually tight) budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..join.planner import CostEstimate, JoinPlan, plan_join
from .registry import ResidentSession
from .requests import JoinRequest, Request, UpdateRequest, WindowQueryRequest

#: Facade methods the estimators cover, mapped to their estimate keys.
#: Paper variant names (``STJ1-2F``) estimate as STJ; everything else
#: (NAIVE, ZJOIN, 2STJ) is conservatively treated as un-estimable and
#: admitted only under an unlimited budget.
_ESTIMATE_KEYS = {"BFJ": "BFJ", "RTJ": "RTJ", "STJ": "STJ"}


class Action(enum.Enum):
    ADMIT = "admit"
    DOWNGRADE = "downgrade"
    REJECT = "reject"


@dataclass(frozen=True)
class RequestBudget:
    """Per-request cost envelope, in the planner's random-access units.

    ``max_predicted_io=None`` is unlimited (every request admits).
    ``allow_downgrade`` controls whether an over-budget request may be
    re-planned onto a cheaper method instead of rejected.
    """

    max_predicted_io: float | None = None
    allow_downgrade: bool = True

    def fits(self, predicted_io: float) -> bool:
        return (
            self.max_predicted_io is None
            or predicted_io <= self.max_predicted_io
        )


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller resolved one request to."""

    action: Action
    method: str
    predicted_io: float | None
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.action is not Action.REJECT


def _estimate_key(method: str) -> str | None:
    upper = method.strip().upper()
    if upper in _ESTIMATE_KEYS:
        return _ESTIMATE_KEYS[upper]
    if upper.startswith("STJ"):
        return "STJ"
    return None


class AdmissionController:
    """Resolves requests against a budget using planner estimates."""

    def __init__(self, budget: RequestBudget | None = None):
        self.budget = budget or RequestBudget()

    # ----------------------------------------------------------------- #

    def plan_for(
        self, session: ResidentSession, n_s: int
    ) -> JoinPlan:
        """The planner's ranking for one join against a resident tree.

        Reads only metadata the tree keeps as it changes (its node count
        and height), so pricing a request reads no page and walks no
        node; it costs no I/O.
        """
        return plan_join(
            session.workspace.config,
            n_s=n_s,
            tree_r_pages=session.tree.num_nodes(),
            tree_r_height=session.tree.height,
        )

    def assess(
        self, session: ResidentSession, request: Request
    ) -> AdmissionDecision:
        """Admit, downgrade, or reject one request under the budget."""
        budget = self._effective_budget(request)
        if isinstance(request, WindowQueryRequest):
            predicted = float(session.tree.height + 1)
            if budget.fits(predicted):
                return AdmissionDecision(Action.ADMIT, "WINDOW", predicted)
            return AdmissionDecision(
                Action.REJECT, "WINDOW", predicted,
                reason=f"window-query descent (~{predicted:.0f} I/O) "
                       f"exceeds budget {budget.max_predicted_io:.0f}",
            )
        if isinstance(request, UpdateRequest):
            # One root-to-leaf descent plus a couple of write-backs per
            # op: the Guttman insert/delete envelope without condense or
            # split cascades (those are data-dependent; the budget prices
            # the common case). Like window queries, maintenance batches
            # cannot be downgraded — only admitted or rejected.
            predicted = float(
                len(request.ops) * (session.tree.height + 2)
            )
            if budget.fits(predicted):
                return AdmissionDecision(Action.ADMIT, "UPDATE", predicted)
            return AdmissionDecision(
                Action.REJECT, "UPDATE", predicted,
                reason=f"maintenance batch of {len(request.ops)} ops "
                       f"(~{predicted:.0f} I/O) exceeds budget "
                       f"{budget.max_predicted_io:.0f}",
            )
        return self._assess_join(session, request, budget)

    # ----------------------------------------------------------------- #

    def _effective_budget(self, request: Request) -> RequestBudget:
        if request_max := getattr(request, "max_predicted_io", None):
            return RequestBudget(
                max_predicted_io=request_max,
                allow_downgrade=self.budget.allow_downgrade,
            )
        return self.budget

    def _assess_join(
        self,
        session: ResidentSession,
        request: JoinRequest,
        budget: RequestBudget,
    ) -> AdmissionDecision:
        key = _estimate_key(request.method)
        if key is None:
            # No estimator for this method: admissible only when the
            # budget is unlimited — admitting unpredicted work under a
            # budget would make the budget advisory.
            if budget.max_predicted_io is None:
                return AdmissionDecision(Action.ADMIT, request.method, None)
            return AdmissionDecision(
                Action.REJECT, request.method, None,
                reason=f"no cost estimator for {request.method!r} under a "
                       f"bounded budget",
            )
        plan = self.plan_for(session, n_s=len(request.entries_s))
        requested: CostEstimate = plan.estimate_for(key)
        if budget.fits(requested.total_io):
            return AdmissionDecision(
                Action.ADMIT, request.method, requested.total_io
            )
        if budget.allow_downgrade:
            cheapest = min(plan.estimates, key=lambda e: e.total_io)
            if cheapest.method != key and budget.fits(cheapest.total_io):
                return AdmissionDecision(
                    Action.DOWNGRADE, cheapest.method, cheapest.total_io,
                    reason=(
                        f"predicted {requested.total_io:.0f} I/O for "
                        f"{request.method} exceeds budget "
                        f"{budget.max_predicted_io:.0f}; downgraded to "
                        f"{cheapest.method} "
                        f"(predicted {cheapest.total_io:.0f})"
                    ),
                )
        return AdmissionDecision(
            Action.REJECT, request.method, requested.total_io,
            reason=(
                f"predicted {requested.total_io:.0f} I/O exceeds budget "
                f"{budget.max_predicted_io:.0f} and no cheaper method fits"
            ),
        )
