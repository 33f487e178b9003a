"""URL normalization + date-from-URL scalar functions.

Semantics from /root/reference/normurl/: implicit http:// scheme, query and
fragment dropped by default (blacklisted keys when keeping), Go path.Clean
on the path, String() lowercases the whole URL, and three ordered date
regexes over the normalized string.
"""

from __future__ import annotations

import datetime as _dt
import re
from urllib.parse import urlsplit, urlunsplit, parse_qsl, urlencode

QUERY_KEY_BLACKLIST = frozenset(
    ["email_subscriber", "utm_campaign", "utm_medium", "utm_source"]
)


def go_path_clean(path: str) -> str:
    """Lexical path cleanup with Go path.Clean semantics."""
    if path == "":
        return "."
    rooted = path.startswith("/")
    parts = path.split("/")
    out: list[str] = []
    for part in parts:
        if part == "" or part == ".":
            continue
        if part == "..":
            if out and out[-1] != "..":
                out.pop()
            elif not rooted:
                out.append("..")
        else:
            out.append(part)
    cleaned = "/".join(out)
    if rooted:
        cleaned = "/" + cleaned
    if cleaned == "":
        return "."
    return cleaned


class URL:
    def __init__(self, rawurl: str, keep_query: bool = False, keep_fragments: bool = False):
        scheme, netloc, path, query, fragment = urlsplit(rawurl)
        if scheme == "":
            # Implicit http:// then re-parse (normurl.go:76-81).
            scheme, netloc, path, query, fragment = urlsplit("http://" + rawurl)
        if not keep_query:
            query = ""
        else:
            pairs = [
                (k, v)
                for k, v in parse_qsl(query, keep_blank_values=True)
                if k not in QUERY_KEY_BLACKLIST
            ]
            pairs.sort()  # url.Values.Encode sorts by key
            query = urlencode(pairs)
        if not keep_fragments:
            fragment = ""
        path = go_path_clean(path)
        self.scheme = scheme
        self.host = netloc
        self.path = path
        self.query = query
        self.fragment = fragment

    def __str__(self) -> str:
        return urlunsplit(
            (self.scheme, self.host, self.path, self.query, self.fragment)
        ).lower()

    def hostname(self) -> str:
        i = self.host.find(":")
        return self.host if i < 0 else self.host[:i]

    def port(self) -> str:
        i = self.host.find(":")
        return "" if i < 0 else self.host[i + 1 :]

    def root(self) -> str:
        """Last two dot-labels of the hostname (parts.go:31-44)."""
        s = self.hostname()
        i = s.rfind(".")
        if i < 0:
            return s
        j = s.rfind(".", 0, i)
        if j < 0:
            return s
        return s[j + 1 :]

    def date(self) -> _dt.datetime | None:
        return date_from_url(str(self))


_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

# Order matters (normurl.go:223-237).
_DATE_REGEXPS = [
    (re.compile(r"/([0-9]{4})/([a-zA-Z]{3})/([0-9]{2})[/]*"), 3),
    (re.compile(r"/([0-9]{4})-([0-9]{2})-([0-9]{2})"), 3),
    (re.compile(r"/([0-9]{4})-([0-9]{2})[/]*"), 2),
]


def date_from_url(s: str) -> _dt.datetime | None:
    for rx, n in _DATE_REGEXPS:
        m = rx.search(s)
        if m is None:
            continue
        groups = m.groups()
        if len(groups) != n:
            continue
        year = int(groups[0])
        mon_s = groups[1]
        if mon_s.isdigit():
            month = int(mon_s)
        else:
            month = _MONTHS.get(mon_s.lower())
            if month is None:
                continue
        day = int(groups[2]) if len(groups) > 2 else 1
        # Go time.Date NORMALIZES out-of-range components instead of
        # erroring (normurl.go:289: /2016-13-40 → 2017-02-09): month
        # rolls into the year, then day-1 days are added to the 1st of
        # that month.  Go also returns on the first matching regex — no
        # fall-through to later patterns on a weird date.
        year += (month - 1) // 12
        month = (month - 1) % 12 + 1
        try:
            return _dt.datetime(
                year, month, 1, tzinfo=_dt.timezone.utc
            ) + _dt.timedelta(days=day - 1)
        except (ValueError, OverflowError):
            # Normalized date is outside datetime's year range [1, 9999]
            # (Go's time.Time can represent it; Python cannot).
            return None
    return None


def parse(rawurl: str) -> URL:
    return URL(rawurl)
