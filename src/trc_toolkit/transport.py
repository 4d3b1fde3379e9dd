"""The socket side of the chat-completions client: proxies, TLS and one POST.

`client.collect_responses` imports this module only when some prompt misses
the cache, so a command that sends nothing never loads the HTTP and TLS stack.
Nothing here binds a function of another toolkit module: a name bound after
the benchmark's tracer has wrapped it would keep the wrapper.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import select
import ssl
import time
import urllib.request
from dataclasses import dataclass
from typing import Optional
from urllib.parse import unquote, urlsplit

from .client import API_KEY_ENV, RETRY_WAIT_CAP
from .errors import AuthFailure
from .manifest import json_type


@dataclass
class Attempt:
    """One POST. Every failure except an auth failure (raised) may be retried."""
    raw: str = ""
    latency: float = 0.0
    error: Optional[str] = None
    retry_after: float = 0.0  # the server's delta-seconds Retry-After on a 429


def _retry_after(value: Optional[str]) -> float:
    """Delta-seconds of a Retry-After header (RFC 9110 §10.2.3), capped; 0 otherwise.

    An HTTP-date value is not honoured: the client's own backoff applies.
    """
    value = (value or "").strip()
    return min(float(value), RETRY_WAIT_CAP) if value.isascii() and value.isdigit() else 0.0


class Transport:
    """Where and how to reach one endpoint; each worker opens its own connection.

    The endpoint is reached through the proxy that the environment names for
    its scheme (HTTP_PROXY, HTTPS_PROXY) unless NO_PROXY matches its host:
    an http:// URL as an absolute-form request to the proxy, an https:// URL
    through a CONNECT tunnel. TLS uses `ssl.create_default_context()`.
    """

    def __init__(self, base_url: str, timeout: float):
        url = urlsplit(base_url.rstrip("/") + "/chat/completions")
        self.host = url.hostname
        self.port = url.port or (443 if url.scheme == "https" else 80)
        self.target = url.path
        self.headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self._timeout = timeout
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        self._proxy = None
        self._tunnel_headers: dict[str, str] = {}
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (proxy.hostname, proxy.port or 80)
            auth = {}
            if proxy.username:
                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                auth["Proxy-Authorization"] = f"Basic {token}"
            if self._context:
                self._tunnel_headers = auth
            else:
                self.target = f"http://{url.netloc}{self.target}"
                self.headers.update(auth)

    def open(self) -> http.client.HTTPConnection:
        """A keep-alive connection; it connects on its first request."""
        host, port = self._proxy or (self.host, self.port)
        if self._context is None:
            return http.client.HTTPConnection(host, port, timeout=self._timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self._timeout,
                                           context=self._context)
        if self._proxy:
            conn.set_tunnel(self.host, self.port, headers=self._tunnel_headers)
        return conn


def _readable(sock) -> bool:
    """Whether a read from `sock` would return at once."""
    if not hasattr(select, "poll"):  # Windows, where select() takes any socket
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()  # unlike select(), not limited to descriptors below 1024
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def request_completion(body: bytes, transport: Transport,
                       conn: http.client.HTTPConnection) -> Attempt:
    """POST one body on `conn`. A failure is an `Attempt` with an error, except
    401/403, which raises AuthFailure."""
    # An idle keep-alive socket that polls readable was closed by the server or
    # holds bytes nobody asked for: close it, and this request opens a new one.
    if conn.sock is not None and _readable(conn.sock):
        conn.close()
    started = time.monotonic()
    try:
        conn.request("POST", transport.target, body, transport.headers)
        resp = conn.getresponse()
        payload = resp.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        return Attempt(error=f"request failed: {type(exc).__name__}: {exc}")
    if resp.status in (401, 403):
        raise AuthFailure(f"endpoint returned {resp.status}")
    if resp.status != 200:
        retry_after = _retry_after(resp.getheader("Retry-After")) \
            if resp.status == 429 else 0.0
        return Attempt(error=f"HTTP {resp.status}", retry_after=retry_after)
    try:
        content = json.loads(payload)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Attempt(error=f"malformed response body: {exc}")
    if type(content) is not str:  # a null content is a failed call, not an empty answer
        return Attempt(error=f"malformed response body: content is {json_type(content)}")
    return Attempt(raw=content, latency=time.monotonic() - started)
