from random import Random

import pytest

from mqttg.topics import TopicTree, topic_filter_valid, topic_matches, topic_name_valid

from gen import random_filter_topic, random_topic
from oracles import topic_match_oracle


class TestValidation:
    @pytest.mark.parametrize("topic", ["a", "a/b", "sport/tennis/player1", "/", "a//b"])
    def test_valid_names(self, topic):
        assert topic_name_valid(topic)

    @pytest.mark.parametrize("topic", ["", "a/+", "#", "a/#", "a\x00b"])
    def test_invalid_names(self, topic):
        assert not topic_name_valid(topic)

    @pytest.mark.parametrize("f", ["a", "+", "#", "a/+/b", "a/#", "+/+", "/", "a//+"])
    def test_valid_filters(self, f):
        assert topic_filter_valid(f)

    @pytest.mark.parametrize("f", ["", "a/#/b", "#/a", "a+", "a/b+", "+a/b", "a\x00"])
    def test_invalid_filters(self, f):
        assert not topic_filter_valid(f)


class TestMatching:
    @pytest.mark.parametrize(
        "f,t,expect",
        [
            ("a/b", "a/b", True),
            ("a/b", "a/c", False),
            ("a/+", "a/b", True),
            ("a/+", "a/b/c", False),
            ("a/#", "a", True),
            ("a/#", "a/b/c", True),
            ("#", "a/b", True),
            ("+/b", "a/b", True),
            ("+", "$SYS", False),
            ("#", "$SYS/x", False),
            ("$SYS/#", "$SYS/x", True),
            ("a//b", "a//b", True),
            ("+/+", "/x", True),
        ],
    )
    def test_cases(self, f, t, expect):
        assert topic_matches(f, t) is expect

    def test_agrees_with_recursive_oracle(self):
        rng = Random(7)
        for _ in range(3000):
            f = random_filter_topic(rng)
            t = random_topic(rng)
            assert topic_matches(f, t) == topic_match_oracle(f, t), (f, t)


def _levels(rng: Random, words) -> list[str]:
    return [rng.choice(words) for _ in range(rng.randint(1, 4))]


class TestTopicTree:
    WORDS = ("a", "b", "c", "", "$SYS")

    def test_matches_what_the_oracle_matches(self):
        rng = Random(11)
        filters = set()
        while len(filters) < 300:
            levels = _levels(rng, self.WORDS + ("+",))
            if rng.random() < 0.3:
                levels[-1] = "#"
            f = "/".join(levels)
            if topic_filter_valid(f):
                filters.add(f)
        removed = set(sorted(filters)[::2])
        tree = TopicTree()
        for f in sorted(filters):
            for client in ("c1", "c2"):
                tree.add(f, client, (f, client))
        for f in removed:
            tree.remove(f, "c2")
        topics = {"/".join(_levels(rng, self.WORDS)) for _ in range(400)}
        for t in filter(topic_name_valid, sorted(topics)):
            got = sorted(v for subs in tree.match(t) for v in subs.values())
            want = sorted(
                (f, client)
                for f in filters
                for client in ("c1", "c2")
                if topic_match_oracle(f, t) and not (client == "c2" and f in removed)
            )
            assert got == want, t

    @pytest.mark.parametrize(
        "f,t,expect",
        [
            ("a/#", "a", True),
            ("a/+", "a", False),
            ("+/#", "a", True),
            ("$SYS/#", "$SYS/x", True),
            ("#", "$SYS/x", False),
            ("+/x", "$SYS/x", False),
            ("a/$SYS", "a/$SYS", True),
            ("a/+", "a/$SYS", True),
        ],
    )
    def test_cases(self, f, t, expect):
        tree = TopicTree()
        tree.add(f, "c", 1)
        assert (tree.match(t) == [{"c": 1}]) is expect

    def test_remove_prunes_to_an_empty_root(self):
        tree = TopicTree()
        for f in ("a/b/c", "a/b", "a/+/#", "#", "$SYS/x"):
            tree.add(f, "c", f)
        tree.remove("a/b/c", "other")  # not stored: a no-op
        tree.remove("a/b/c/d", "c")
        assert tree.match("a/b/c") != []
        for f in ("a/b", "#", "a/b/c", "$SYS/x", "a/+/#"):
            tree.remove(f, "c")
        assert tree.root.children == {} and tree.root.subs is None
