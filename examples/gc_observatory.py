"""Watching the distributed collector work.

Run:  python examples/gc_observatory.py

A narrated tour of the reference life cycle: dirty calls on import,
the Figure-1 handoff race (pass a reference and drop it immediately),
clean calls on surrogate death, and crash recovery via the pinger.
Prints the collector's own statistics at each step so you can see the
protocol happening.
"""

import gc
import time
import weakref

from repro import GcConfig, NetObj, Space


class Token(NetObj):
    def __init__(self, label: str):
        self.label = label

    def ping(self) -> str:
        return f"token {self.label} alive"


class Vault(NetObj):
    """Creates Tokens kept alive only by remote references."""

    def __init__(self):
        self.issued = []

    def issue(self, label: str) -> Token:
        token = Token(label)
        self.issued.append(weakref.ref(token))
        return token

    def live_tokens(self) -> int:
        gc.collect()
        return sum(1 for ref in self.issued if ref() is not None)


class Shelf(NetObj):
    """A place to park references (the third party)."""

    def __init__(self):
        self.items = []

    def put(self, item) -> int:
        self.items.append(item)
        return len(self.items)

    def clear(self) -> None:
        self.items.clear()
        gc.collect()


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        gc.collect()
        time.sleep(0.02)
    return predicate()


def main() -> None:
    gc_config = GcConfig(ping_interval=0.1, ping_timeout=0.5,
                         ping_max_failures=2)
    owner = Space("owner", listen=["tcp://127.0.0.1:0"], gc=gc_config)
    courier = Space("courier", listen=["tcp://127.0.0.1:0"])
    keeper = Space("keeper", listen=["tcp://127.0.0.1:0"])
    try:
        vault = Vault()
        owner.serve("vault", vault)
        keeper.serve("shelf", Shelf())

        banner("import: ⊥ → nil → OK (dirty call + ack)")
        vault_at_courier = courier.import_object(owner.endpoints[0], "vault")
        token = vault_at_courier.issue("T1")
        print("courier got:", token.ping())
        print("courier stats:", {
            k: v for k, v in courier.gc_stats().items()
            if k in ("surrogates", "dirty_calls_sent")
        })
        print("owner sees dirty calls:",
              owner.gc_stats()["dirty_calls_seen"])

        banner("Figure-1 race: hand off and drop immediately")
        shelf_at_courier = courier.import_object(keeper.endpoints[0], "shelf")
        shelf_at_courier.put(token)
        del token                     # courier lets go at once
        gc.collect()
        courier.cleanup_daemon.wait_idle()
        print("live tokens at owner:", vault_at_courier.live_tokens())
        assert vault_at_courier.live_tokens() == 1, "premature collection!"

        banner("surrogate death → clean call → reclamation")
        keeper.agent.get("shelf").clear()   # keeper drops its reference
        assert wait_for(lambda: vault_at_courier.live_tokens() == 0)
        print("live tokens at owner:", vault_at_courier.live_tokens())
        print("owner clean calls seen:",
              owner.gc_stats()["clean_calls_seen"])

        banner("crash recovery: pinger purges a dead client")
        token2 = vault_at_courier.issue("T2")
        print("issued", token2.ping())
        assert vault_at_courier.live_tokens() == 1
        keep_vault_alive = keeper.import_object(owner.endpoints[0], "vault")
        print("courier space now 'crashes' (no clean calls sent)...")
        courier.shutdown()
        assert wait_for(lambda: keep_vault_alive.live_tokens() == 0,
                        timeout=10)
        print("owner purged the dead client; tokens reclaimed:",
              keep_vault_alive.live_tokens() == 0)
        print("pinger purges performed:",
              owner.stats()["gc"]["clients_purged"])
    finally:
        courier.shutdown()
        keeper.shutdown()
        owner.shutdown()
    print("\ndone.")


if __name__ == "__main__":
    main()
