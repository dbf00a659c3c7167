"""Sealed-bid auction: bidders, an auction service, and a result publisher.

Users register one bid each while the auction runs. The service seals
the winner when it closes, and a separate publisher releases the result.
Information is meant to flow from bidders into the service and from the
service to the publisher only: bidders learn nothing about each other's
bids beyond the published outcome. Each bidder may bid any amount in
:data:`BIDS`.

At the concrete level a registration takes the bid ledger's lock,
writes a provisional entry and commits it on unlock; if the auction
closed in between, the provisional entry is rolled back, matching the
abstract level where a registration either happens atomically while the
auction runs or not at all. "No winning bid" is represented as None.
"""

from __future__ import annotations

from ifsec import refinement
from ifsec.core import State, UsageError, Value
from ifsec.models.common import (
    ModelBundle,
    compile_levels,
    contracts_spec,
    frame_contract,
    pc_key,
)
from ifsec.programs import Basic, Event, lock_acquire, seq

RESERVE_PRICE = 1
BIDS = (1, 2)

SERVER = "server"
PUBLISHER = "publisher"


def better(current: Value, candidate: tuple[str, int]) -> tuple[str, int]:
    """Pick the higher bid; ties keep the incumbent."""
    if current is None or candidate[1] > current[1]:
        return candidate
    return current


def ledger_max(log: tuple) -> Value:
    """Highest bid in registration order, ties to the earliest."""
    top: Value = None
    for entry in log:
        top = better(top, entry)
    return top


def winner(top: Value, reserve: int) -> Value:
    return top if top is not None and top[1] > reserve else None


def build_auction(users: int = 2, budget: int | None = None) -> ModelBundle:
    """Build the auction bundle for `users` bidders.

    `budget` caps the states of each level's build.
    """
    if not 1 <= users <= 3:
        raise UsageError("users must be between 1 and 3")

    names = tuple(f"u{i}" for i in range(1, users + 1))
    components = names + ("auc",)
    domains = tuple(sorted(names + (SERVER, PUBLISHER)))

    def start(s: State) -> dict[str, Value]:
        return {"status": "running", "reserve": RESERVE_PRICE}

    def seal(top_var: str):
        def close(s: State) -> dict[str, Value]:
            return {"status": "closed", "sealed": winner(s[top_var], s["reserve"])}

        return close

    def publish(s: State) -> dict[str, Value]:
        return {"res": s["sealed"]}

    def ready(s: State) -> bool:
        return s["status"] == "ready"

    def running(s: State) -> bool:
        return s["status"] == "running"

    def closed(s: State) -> bool:
        return s["status"] == "closed"

    def service_events(top_var: str) -> tuple[Event, ...]:
        return (
            Event(f"Start_Auction({RESERVE_PRICE})", ready, Basic(start, "start"), SERVER),
            Event("Close_Auction", running, Basic(seal(top_var), "close"), SERVER),
            Event("Publish_Result", closed, Basic(publish, "publish"), PUBLISHER),
        )

    def register_events(u: str, amount: int) -> tuple[Event, Event]:
        entry = (u, amount)

        def fresh(s: State) -> bool:
            return running(s) and all(e[0] != u for e in s["log"])

        def register(s: State) -> dict[str, Value]:
            if not running(s):
                return {}
            return {"log": s["log"] + (entry,), "maxbid": better(s["maxbid"], entry)}

        def commit(s: State) -> dict[str, Value]:
            if running(s):
                return {"lock": None, "oblog": s["log"], "obid": s["maxbid"]}
            return {"lock": None, "log": s["oblog"], "maxbid": s["obid"]}

        label = f"Register_Bid({amount})"
        concrete_body = seq(
            lock_acquire("lock", u),
            Basic(register, "register"),
            Basic(commit, "unlock"),
        )
        return (Event(label, fresh, concrete_body, u),
                Event(label, fresh, Basic(register, "register"), u))

    events = {u: [register_events(u, amount) for amount in BIDS]
              for u in names}
    events["auc"] = zip(service_events("obid"), service_events("maxbid"))

    shared: dict[str, Value] = {
        "status": "ready", "reserve": 0, "log": (), "maxbid": None,
        "sealed": None, "res": None,
    }
    concrete_vars = dict(shared, lock=None, oblog=(), obid=None)
    abstract_vars = dict(shared)

    def observe(log_var: str, top_var: str):
        def view(d: str, s: State) -> Value:
            if d == SERVER:
                return (s["status"], s["reserve"], s[log_var], s[top_var])
            if d == PUBLISHER:
                return (s["sealed"], s["res"])
            return s["res"]

        return view

    policy = {(d, d) for d in domains}
    policy |= {(u, SERVER) for u in names}
    policy.add((SERVER, PUBLISHER))
    policy |= {(PUBLISHER, u) for u in names}

    concrete, abstract, zeta = compile_levels(
        components, events, (concrete_vars, abstract_vars),
        (observe("oblog", "obid"), observe("log", "maxbid")),
        domains, policy, budget)

    def link():
        public = ("status", "reserve", "sealed", "res")
        concrete_view = pc_key(components, (*public, "oblog", "obid"))
        abstract_view = pc_key(components, (*public, "log", "maxbid"))

        def concrete_key(c: State):
            """None while the unlocked ledger differs from its committed
            copy; else the public variables, the committed ledger and bid,
            and the pc events."""
            if c["lock"] is None and (c["log"] != c["oblog"]
                                      or c["maxbid"] != c["obid"]):
                return None
            return concrete_view(c)

        def abstract_key(a: State):
            """None when a published result is not the ledger maximum above
            the reserve of a closed auction."""
            res = a["res"]
            if res is not None and not (a["status"] == "closed"
                                        and res == ledger_max(a["log"])
                                        and res[1] > a["reserve"]):
                return None
            return abstract_view(a)

        alpha = refinement.Alpha.keyed(
            concrete_key, abstract_key,
            "abstract ledger matches the committed ledger; a published result "
            "is the ledger maximum above the reserve")
        pair = refinement.RefinementPair(concrete, abstract, alpha, zeta())
        return pair, _rely_guarantee(names)

    return ModelBundle(
        concrete=concrete,
        abstract=abstract,
        params=(("users", users), ("bids", BIDS)),
        link=link,
    )


def _rely_guarantee(names: tuple[str, ...]):
    """Ledger contracts: bidders write under the lock, the service owns the rest."""
    ledger = {"lock": ("log", "maxbid", "oblog", "obid")}
    contracts = {u: frame_contract(u, owned=[f"pc.{u}"], locks=ledger)
                 for u in names}
    contracts["auc"] = frame_contract(
        "auc", owned=["pc.auc"], shared=["status", "reserve", "sealed", "res"])
    return contracts_spec(contracts)
