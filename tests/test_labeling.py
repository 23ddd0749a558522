import re

import pytest
import regex

from stancelab import labeling as lb
from stancelab import textproc as tp
from stancelab.config import default_rule_path
from stancelab.corpus import Corpus, MicroPost, UserProfile
from stancelab.features import FeatureColumn
from stancelab.tsv import RuleFileError


@pytest.fixture(scope="module")
def rules():
    return lb.load_ruleset(default_rule_path("gazetteer.tsv"),
                           default_rule_path("names.tsv"),
                           default_rule_path("patterns.tsv"),
                           default_rule_path("stance_seeds.tsv"),
                           reference_year=2017)


def prof(**kw):
    return UserProfile(user_id="u", **kw)


def test_location_from_comma_component(rules):
    assert lb.label_location(prof(location_text="Providencia, Santiago"),
                             rules.gazetteer) == "Chile"


def test_location_ambiguous_abstains(rules):
    # both countries present: abstain
    assert lb.label_location(prof(location_text="Santiago, Buenos Aires"),
                             rules.gazetteer) is None
    assert lb.label_location(prof(location_text=None), rules.gazetteer) is None
    assert lb.label_location(prof(location_text="Narnia"),
                             rules.gazetteer) is None


def test_gender_from_first_name(rules):
    assert lb.label_gender(prof(full_name="María Pérez"), rules) == "female"
    assert lb.label_gender(prof(full_name="Juan Soto"), rules) == "male"


def test_gender_from_bio_expression(rules):
    assert lb.label_gender(prof(bio="orgullosa madre de dos"),
                           rules) == "female"


def test_gender_conflict_abstains(rules):
    assert lb.label_gender(prof(bio="madre y padre a la vez"), rules) is None
    assert lb.label_gender(prof(), rules) is None


def test_cohort_boundaries():
    assert lb.cohort_of_age(17) == "<18"
    assert lb.cohort_of_age(18) == "18-29"
    assert lb.cohort_of_age(29) == "18-29"
    assert lb.cohort_of_age(30) == "30-39"
    assert lb.cohort_of_age(39) == "30-39"
    assert lb.cohort_of_age(40) == ">=40"
    assert lb.cohort_of_age(9) is None
    assert lb.cohort_of_age(101) is None


def test_age_from_phrase(rules):
    assert lb.label_age(prof(bio="25 años, porteña"), rules) == "18-29"
    assert lb.label_age(prof(bio="nacida en 1980"), rules) == "30-39"


def test_age_implausible_or_conflicting(rules):
    assert lb.label_age(prof(bio="500 años"), rules) is None
    assert lb.label_age(prof(bio="25 años pero nacida en 1950"), rules) is None
    # birth year outside the plausible window is ignored
    assert lb.label_age(prof(bio="nacido en 1492"), rules) is None


def _stance(bio, tweets, rules):
    users = {"u": UserProfile(user_id="u", bio=bio)}
    posts = tuple(MicroPost(f"p{k}", "u", k, text)
                  for k, text in enumerate(tweets))
    corpus = Corpus(posts=posts, users=users)
    [stance] = lb.label_stances(corpus, rules.stance_seeds)
    return stance


def test_stance_exclusive_seed(rules):
    assert _stance("", ["marchamos por #AbortoLegal"], rules) == "defense"
    assert _stance("", ["siempre #provida"], rules) == "opposition"


def test_stance_both_sides_abstains(rules):
    assert _stance("", ["#abortolegal vs #provida debate"], rules) is None
    assert _stance("", ["nada de hashtags"], rules) is None


def test_stance_hashtag_requires_token_equality(rules):
    # longer hashtag containing a seed must not match
    assert _stance("", ["#abortolegalseguro ya"], rules) is None


def test_stance_from_bio(rules):
    assert _stance("activista #provida", [], rules) == "opposition"


def test_leakage_columns(rules):
    cols = [FeatureColumn(ident, block, ftype) for ident, block, ftype in (
        ("#abortolegal", "tweet_term", "hashtag"),
        ("profile:#provida", "bio_term", "hashtag"),
        ("aborto", "tweet_term", "word"), ("santiago", "tweet_term", "word"),
        ("1995", "tweet_term", "word"), ("25", "tweet_term", "word"),
        ("w001", "tweet_term", "word"), ("profile:madre", "bio_term", "word"),
        ("lexcat:family", "bio_term", "lexicon_category"),
        ("abc.org:8080", "tweet_term", "url"),
        ("example.com:2017", "tweet_term", "url"),
        ("rt:1995", "retweet_edge", "network"),
        ("at:santiago", "directed_edge", "network"))]
    leaks = lb.leakage_columns(rules, cols)
    assert "#abortolegal" in leaks
    assert "profile:#provida" in leaks
    assert "santiago" in leaks          # gazetteer place
    assert "1995" in leaks and "25" in leaks
    assert "profile:madre" in leaks     # gender expression
    assert "w001" not in leaks
    assert "lexcat:family" not in leaks
    assert "aborto" not in leaks        # topic term is not a stance seed
    # a tweet term's own ':' is no prefix: a port is not an age
    assert "abc.org:8080" not in leaks
    assert "example.com:2017" not in leaks
    # an edge column names a user, whom no rule reads
    assert "rt:1995" not in leaks and "at:santiago" not in leaks


def test_label_confidence_contract():
    with pytest.raises(ValueError):
        lb.Label("x", "rule", 0.9)
    lab = lb.Label("x", "predicted", 0.7)
    assert lab.confidence == 0.7
    for provenance, confidence in (("guess", 1.0), ("predicted", 7.5),
                                   ("predicted", -0.1),
                                   ("predicted", float("nan")),
                                   ("predicted", float("inf"))):
        with pytest.raises(ValueError):
            lb.Label("x", provenance, confidence)
    # stance and age cohort take only their own values
    labels = lb.LabelSet()
    for attribute, value in (("stance", "defence"), ("age_cohort", "17")):
        with pytest.raises(ValueError, match=f"unknown {attribute}"):
            labels.set("u1", attribute, lb.Label(value, "manual", 1.0))
    assert labels.labels == {}
    for attribute, values in (("stance", lb.STANCES),
                              ("age_cohort", lb.COHORTS)):
        for value in values:
            labels.set("u1", attribute, lb.Label(value, "manual", 1.0))


def test_manual_labels_override(tmp_path, rules):
    ls = lb.LabelSet()
    ls.set("u1", "gender", lb.Label("male", "rule", 1.0))
    f = tmp_path / "manual.tsv"
    f.write_text("u1\tgender\tfemale\nu2\tstance\tdefense\n")
    lb.import_manual_labels(ls, f)
    assert ls.get("u1", "gender").value == "female"
    assert ls.get("u1", "gender").provenance == "manual"
    assert ls.get("u2", "stance").value == "defense"


def test_stance_tweet_phrase_spans_tokens_and_posts():
    seeds = {"defense": {"bio": (), "tweet": ("aborto legal",)},
             "opposition": {"bio": (), "tweet": ("#provida",)}}
    users = {u: UserProfile(user_id=u) for u in ("a", "b", "c", "d")}
    posts = (MicroPost("p1", "a", 1, "¡Aborto, LEGAL!"),
             MicroPost("p2", "b", 2, "aborto"),
             MicroPost("p3", "b", 3, "legal hoy"),
             MicroPost("p4", "c", 4, "abortolegal"),
             MicroPost("p5", "d", 5, "aborto legal #provida"))
    corpus = Corpus(posts=posts, users=users)
    # a phrase matches the user's post tokens joined by spaces, across posts
    assert lb.label_stances(corpus, seeds) == [
        "defense", "defense", None, None]


@pytest.mark.parametrize("name, again", [
    ("gazetteer.tsv", "Santiago \tArgentina"), ("names.tsv", "ANA\tmale")])
def test_a_lookup_key_given_twice_is_a_named_error(tmp_path, name, again):
    # the shipped file with one more line whose key, casefolded, it holds
    shipped = open(default_rule_path(name), encoding="utf-8").read()
    key = again.split("\t")[0].strip().casefold()
    first = next(n for n, line in enumerate(shipped.split("\n"), 1)
                 if line.split("\t")[0] == key)
    path = tmp_path / name
    path.write_text(shipped + again + "\n", encoding="utf-8")
    with pytest.raises(RuleFileError, match=re.escape(
            f"{path}:{shipped.count(chr(10)) + 1}: duplicate key identifier "
            f"{key!r} (first on line {first}): {again!r}")):
        lb.load_lookup(path)


def test_shipped_rule_files_load_these_values(rules):
    assert rules.gazetteer == {
        **dict.fromkeys(["chile", "santiago", "santiago de chile",
                         "valparaíso", "valparaiso", "concepción",
                         "concepcion", "antofagasta", "temuco"], "Chile"),
        **dict.fromkeys(["argentina", "buenos aires", "caba", "córdoba",
                         "cordoba", "rosario", "mendoza", "la plata",
                         "mar del plata", "san miguel de tucumán"],
                        "Argentina")}
    assert rules.name_genders == {
        **dict.fromkeys(["maría", "maria", "ana", "sofía", "sofia", "camila",
                         "valentina", "carla", "lucía", "lucia", "josefa"],
                        "female"),
        **dict.fromkeys(["juan", "josé", "jose", "pedro", "diego", "matías",
                         "matias", "carlos", "felipe", "martín", "martin"],
                        "male")}
    assert [(p.pattern, g) for p, g in rules.gender_expressions] == [
        (r"\bmadre\b", "female"), (r"\bmamá\b", "female"),
        (r"\babogada\b", "female"), (r"\bingeniera\b", "female"),
        (r"\bprofesora\b", "female"),
        (r"\bestudiante de\b.*\bella\b", "female"),
        (r"\bpadre\b", "male"), (r"\bpapá\b", "male"),
        (r"\babogado\b", "male"), (r"\bingeniero\b", "male"),
        (r"\bprofesor\b", "male")]
    assert [(p.pattern, kind) for p, kind in rules.age_patterns] == [
        (r"\b(\d{1,3})\s*añ(?:os|itos)\b", "age"),
        (r"\b(\d{1,3})\s*years?\s*old\b", "age"),
        (r"\bnacid[oa]\s*(?:en|el)?\s*(\d{4})\b", "birth_year"),
        (r"\b(?:desde|est\.?)\s*(\d{4})\b", "birth_year")]
    assert all(p.flags & regex.IGNORECASE for p, _ in
               rules.gender_expressions + rules.age_patterns)
    assert rules.stance_seeds == {
        "defense": {
            "bio": ("#abortolegal", "#abortolibre", "#abortoseguro",
                    "#abortogratuito", "feminista", "a favor del aborto",
                    "#proeleccion", "#prochoice"),
            "tweet": ("#abortolegal", "#abortolibre", "#abortoseguro",
                      "@abortolegalcl", "#nobastantrescausales", "#seraley",
                      "@campabortolegal")},
        "opposition": {
            "bio": ("@siemprexlavida", "derecho a la vida", "#antiaborto",
                    "contrario al aborto", "contraria al aborto",
                    "las dos vidas", "cristiano", "cristiana",
                    "#salvemoslasdosvidas", "aborto no es la solución",
                    "#siempreporlavida", "#porlasdosvidas", "#profamilia",
                    "#provida", "#noalaborto"),
            "tweet": ("#provida", "#salvemoslasdosvidas", "#sialavida",
                      "#abortolegalno", "#noalaborto", "#noesley",
                      "@mmreivindica", "@noalaborto_arg")}}


def test_shipped_lexicon_and_stopwords_load_these_values():
    lexicon = tp.Lexicon.from_file(default_rule_path("lexicon.tsv"))
    assert list(lexicon.categories) == ["social_media", "profession",
                                        "family", "education"]
    assert lexicon.categories == {
        "social_media": frozenset(
            "ig insta instagram snap snapchat fb facebook tiktok "
            "youtube".split()),
        "profession": frozenset(
            "médico médica abogado abogada periodista estudiante profesor "
            "profesora ingeniero ingeniera director directora".split()),
        "family": frozenset(
            "madre padre mamá papá hijo hija esposo esposa abuelo "
            "abuela".split()),
        "education": frozenset(
            "liceo educación doctorado universidad colegio magíster".split())}
    assert tp.load_stopwords(default_rule_path("stopwords_es.txt")) == set("""
        a al algo algunas algunos ante antes como con contra cual cuando de
        del desde donde durante e el ella ellas ellos en entre era es esa esas
        ese eso esos esta estar estas este esto estos fue hasta hay la las le
        les lo los mas me mi mis mucho muchos muy más mí mía mías mío míos
        nada ni no nos nosotras nosotros nuestra nuestras nuestro nuestros o
        os otra otras otro otros para pero poco por porque que quien quienes
        qué se ser si sin sobre son su sus suya suyas suyo suyos sí también
        tanto te ti todo todos tu tus tuya tuyas tuyo tuyos tú un una uno unos
        vosotras vosotros vuestra vuestras vuestro vuestros y ya yo él
        """.split())
