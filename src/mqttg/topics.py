"""MQTT topic name/filter validation and wildcard matching."""

from __future__ import annotations

from typing import Any


def topic_name_bytes(topic: str) -> bytes | None:
    """The UTF-8 bytes of a publishable topic (non-empty, no wildcards, no
    NUL, fits a string), or None for any other topic."""
    if not topic or "\x00" in topic or "+" in topic or "#" in topic:
        return None
    raw = topic.encode("utf-8")
    return raw if len(raw) <= 65535 else None


def topic_name_valid(topic: str) -> bool:
    """A publishable topic: non-empty, no wildcards, no NUL, fits a string."""
    return topic_name_bytes(topic) is not None


def topic_filter_valid(topic_filter: str) -> bool:
    """A subscription filter: '+' alone in a level, '#' alone in the last."""
    if not topic_filter or "\x00" in topic_filter:
        return False
    if len(topic_filter.encode("utf-8")) > 65535:
        return False
    levels = topic_filter.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                return False
        if "+" in level and level != "+":
            return False
    return True


def topic_matches(topic_filter: str, topic: str) -> bool:
    """Wildcard match of a concrete topic against a filter.

    '+' matches exactly one level, '#' the remainder (including zero
    levels). Filters starting with a wildcard never match topics whose
    first level starts with '$'.
    """
    filter_levels = topic_filter.split("/")
    topic_levels = topic.split("/")
    if topic_levels[0].startswith("$") and filter_levels[0] in ("+", "#"):
        return False
    i = 0
    for i, flevel in enumerate(filter_levels):
        if flevel == "#":
            return True
        if i >= len(topic_levels):
            return False
        if flevel != "+" and flevel != topic_levels[i]:
            return False
    return len(filter_levels) == len(topic_levels)


class _Node:
    """One filter level: children keyed by the next level ('+' and '#'
    included) and, where a filter ends, its subscribers. Both are made on
    first use (the root's children at once): most nodes are leaves."""

    __slots__ = ("children", "subs")

    def __init__(self) -> None:
        self.children: dict[str, _Node] | None = None
        self.subs: dict[str, Any] | None = None


class TopicTree:
    """Subscription index: filter -> {client_id: value}, matched by walking
    a topic's levels, so a lookup costs the levels and the filters that
    share them, not the number of filters stored (Mosquitto's subscription
    tree, EMQX's topic trie). Matches exactly what topic_matches matches."""

    def __init__(self) -> None:
        self.root = _Node()
        self.root.children = {}

    def add(self, topic_filter: str, client_id: str, value: Any) -> None:
        """Store value for (filter, client), replacing any previous one."""
        node = self.root
        for level in topic_filter.split("/"):
            children = node.children
            if children is None:
                children = node.children = {}
            child = children.get(level)
            if child is None:
                child = children[level] = _Node()
            node = child
        if node.subs is None:
            node.subs = {}
        node.subs[client_id] = value

    def remove(self, topic_filter: str, client_id: str) -> None:
        """Drop (filter, client) and prune the nodes it leaves empty."""
        levels = topic_filter.split("/")
        path = [self.root]
        for level in levels:
            children = path[-1].children
            node = children.get(level) if children is not None else None
            if node is None:
                return
            path.append(node)
        leaf = path[-1]
        if leaf.subs is None or leaf.subs.pop(client_id, None) is None:
            return
        if not leaf.subs:
            leaf.subs = None
        for depth in range(len(levels), 0, -1):
            node = path[depth]
            if node.subs is not None or node.children:
                break
            del path[depth - 1].children[levels[depth - 1]]

    def match(self, topic: str) -> list[dict[str, Any]]:
        """The subscriber maps of every stored filter that matches topic, a
        topic name (no wildcards); each filter appears once."""
        levels = topic.split("/")
        out: list[dict[str, Any]] = []
        # Filters starting with a wildcard never match '$' topics.
        self._walk(self.root, levels, 0, out, levels[0].startswith("$"))
        return out

    def _walk(self, node: _Node, levels: list[str], i: int, out: list, dollar: bool) -> None:
        children = node.children
        if i == len(levels):
            if node.subs is not None:
                out.append(node.subs)
            if children is None:
                return
            multi = children.get("#")  # 'a/#' also matches 'a'
            if multi is not None and multi.subs is not None:
                out.append(multi.subs)
            return
        if children is None:
            return
        if not dollar:
            multi = children.get("#")
            if multi is not None and multi.subs is not None:
                out.append(multi.subs)
            single = children.get("+")
            if single is not None:
                self._walk(single, levels, i + 1, out, False)
        exact = children.get(levels[i])
        if exact is not None:
            self._walk(exact, levels, i + 1, out, False)
