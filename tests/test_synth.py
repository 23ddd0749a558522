from dataclasses import fields

import numpy as np
import pytest

from stancelab import labeling as lb
from stancelab import synth
from stancelab.config import default_rule_path
from stancelab.corpus import Corpus


def test_deterministic_per_seed():
    spec = synth.SynthSpec(n_users=40, rng_seed=9)
    c1, t1 = synth.generate(spec)
    c2, t2 = synth.generate(spec)
    assert c1.posts == c2.posts
    assert t1.p0 == t2.p0
    c3, _t3 = synth.generate(synth.SynthSpec(n_users=40, rng_seed=10))
    assert c3.posts != c1.posts


def test_ground_truth_consistency():
    spec = synth.SynthSpec(n_users=80, rng_seed=1,
                           turnaround_effects={"gender": {"male": -0.1}})
    c, truth = synth.generate(spec)
    assert set(truth.stance) == set(c.users)
    for uid in c.users:
        assert truth.stance[uid] in ("defense", "opposition")
        lo, hi = synth.COHORT_AGES[truth.cohort[uid]]
        assert lo <= truth.age[uid] <= hi
        assert 0 < truth.p0[uid] < 1 and 0 < truth.p1[uid] < 1
        assert truth.delta[uid] == truth.p1[uid] - truth.p0[uid]


def test_posts_fall_in_periods():
    spec = synth.SynthSpec(n_users=30, rng_seed=2)
    c, _truth = synth.generate(spec)
    (a0, a1), (b0, b1) = synth.PERIODS
    for p in c.posts:
        assert (a0 <= p.timestamp < a1) or (b0 <= p.timestamp < b1)


def test_signal_emojis_track_stance():
    spec = synth.SynthSpec(n_users=60, rng_seed=3)
    c, truth = synth.generate(spec)
    by_user = {uid: [] for uid in c.users}
    for p in c.posts:
        by_user[p.author_id].append(p.text)
    for uid, texts in by_user.items():
        text = " ".join(texts)
        own = (synth.DEFENSE_EMOJI if truth.stance[uid] == "defense"
               else synth.OPPOSITION_EMOJI)
        other = (synth.OPPOSITION_EMOJI if truth.stance[uid] == "defense"
                 else synth.DEFENSE_EMOJI)
        assert text.count(own) >= text.count(other)


def test_self_reports_parseable_by_shipped_rules():
    spec = synth.SynthSpec(n_users=120, rng_seed=4)
    c, truth = synth.generate(spec)
    rules = lb.load_ruleset(default_rule_path("gazetteer.tsv"),
                            default_rule_path("names.tsv"),
                            default_rule_path("patterns.tsv"),
                            default_rule_path("stance_seeds.tsv"),
                            reference_year=2017)
    # bios alone: the users without their posts
    bios_only = Corpus(posts=(), users=c.users)
    stances = dict(zip(sorted(c.users),
                       lb.label_stances(bios_only, rules.stance_seeds)))
    for uid, prof in c.users.items():
        rep = truth.self_reported[uid]
        if "gender" in rep:
            assert lb.label_gender(prof, rules) == truth.gender[uid]
        if "location" in rep:
            assert lb.label_location(prof, rules.gazetteer) == truth.country[uid]
        if "age_cohort" in rep:
            assert lb.label_age(prof, rules) == truth.cohort[uid]
        if "stance" in rep:
            assert stances[uid] == truth.stance[uid]


def test_planted_effect_shifts_delta():
    spec = synth.SynthSpec(n_users=800, rng_seed=5, p0_mode="mid",
                           turnaround_effects={"gender": {"male": -0.2}})
    _c, truth = synth.generate(spec)
    male = [truth.delta[u] for u in truth.delta if truth.gender[u] == "male"]
    female = [truth.delta[u] for u in truth.delta
              if truth.gender[u] == "female"]
    assert np.mean(male) - np.mean(female) < -0.15


def test_interactions_reference_corpus_users():
    spec = synth.SynthSpec(n_users=25, rng_seed=6, interaction_density=0.9)
    c, _truth = synth.generate(spec)
    for p in c.posts:
        if p.retweet_of:
            assert p.retweet_of in c.users and p.retweet_of != p.author_id
        for target, kind in p.directed_at:
            assert target in c.users and target != p.author_id
            assert kind in ("mention", "reply", "quote")


# for each SynthSpec field, values of the wrong type or out of range, and the
# key the error names
_BAD_SPEC_VALUES = {
    "n_users": [0, 2.0, True],
    "signal_word_rate": [1.5, -0.1, float("nan"), "0.5"],
    "signal_emoji_rate": [1.01, None],
    "topic_term_rate": [-1, True],
    "posts_per_user_per_period": [-3.0, 0.5, float("inf")],
    "interaction_density": [2.0, "0.4"],
    "turnaround_effects": [{"country": {"Chile": -0.1}}, [("gender", {})],
                           {"gender": {"other": 0.1}},
                           {"gender": ["male"]},
                           {"gender": {"male": "-0.1"}},
                           {"stance": {"defense": float("nan")}}],
    "p0_mode": ["high", 1],
    "rng_seed": [1.5, -1, "7", False],
}


def test_every_spec_field_has_bad_values():
    assert sorted(_BAD_SPEC_VALUES) == sorted(
        f.name for f in fields(synth.SynthSpec))


@pytest.mark.parametrize("name, value", [
    (name, value) for name, values in _BAD_SPEC_VALUES.items()
    for value in values])
def test_spec_refuses_a_bad_value_naming_its_field(name, value):
    with pytest.raises(synth.SynthError, match=rf"^{name}(\.\S+)? must be "):
        synth.SynthSpec(**{name: value})


def test_spec_takes_each_turnaround_level():
    effects = {"gender": dict.fromkeys(("female", "male"), 0.1),
               "age_cohort": dict.fromkeys(synth.COHORT_AGES, -0.1),
               "location": dict.fromkeys(("Argentina", "Chile"), 0),
               "stance": dict.fromkeys(("defense", "opposition"), 0.2)}
    assert synth.SynthSpec(turnaround_effects=effects).turnaround_effects \
        == effects
