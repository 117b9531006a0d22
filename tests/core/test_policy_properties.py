"""Property tests: the local cache's replacement policies vs reference
models (cread and cwrite both feed ``on_access``)."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import (FirstInPolicy, LruCachePolicy,
                               MruCachePolicy)

REGION = 8192


@st.composite
def policy_ops(draw):
    n = draw(st.integers(1, 100))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["insert", "read", "write", "remove",
                                     "evict"]))
        ops.append((kind, draw(st.integers(0, 9))))
    return ops


def drive(policy, model_update, model_victim, ops):
    """Run ops against the policy and an OrderedDict recency model."""
    model: OrderedDict[int, None] = OrderedDict()
    for kind, crd in ops:
        if kind == "insert":
            policy.on_insert(crd, REGION)
            model_update(model, "insert", crd)
        elif kind in ("read", "write"):
            policy.on_access(crd)
            model_update(model, "touch", crd)
        elif kind == "remove":
            policy.on_remove(crd)
            model.pop(crd, None)
        else:  # evict: ask for a victim and compare with the model's
            got = policy.victim()
            assert got == model_victim(model)
            if got is not None:
                policy.on_remove(got)
                model.pop(got, None)


@given(policy_ops())
@settings(max_examples=100, deadline=None)
def test_lru_matches_recency_model(ops):
    def update(model, kind, crd):
        if kind == "insert":
            model[crd] = None
            model.move_to_end(crd)
        elif crd in model:
            model.move_to_end(crd)

    def victim(model):
        return next(iter(model), None)

    drive(LruCachePolicy(), update, victim, ops)


@given(policy_ops())
@settings(max_examples=100, deadline=None)
def test_mru_matches_recency_model(ops):
    def update(model, kind, crd):
        if kind == "insert":
            model[crd] = None
            model.move_to_end(crd)
        elif crd in model:
            model.move_to_end(crd)

    def victim(model):
        return next(reversed(model), None)

    drive(MruCachePolicy(), update, victim, ops)


@given(policy_ops())
@settings(max_examples=100, deadline=None)
def test_first_in_never_selects_and_keeps_order(ops):
    policy = FirstInPolicy()
    inserted: OrderedDict[int, None] = OrderedDict()
    for kind, crd in ops:
        if kind == "insert":
            policy.on_insert(crd, REGION)
            inserted.setdefault(crd, None)  # first insertion order sticks
        elif kind in ("read", "write"):
            policy.on_access(crd)
        elif kind == "remove":
            policy.on_remove(crd)
            inserted.pop(crd, None)
        else:
            assert policy.victim() is None
        assert list(policy.keys()) == list(inserted)
