"""Stdlib client for the campaign service.

``http.client`` against the service API — used by ``gemfi submit`` /
``gemfi jobs`` / ``gemfi fetch``, by ``gemfi compare --url`` and
``gemfi report --baseline --url`` (which fetch job summaries), and by
tests; importable by any script that wants to drive a campaign
service programmatically.

The client keeps **one persistent connection** and reuses it across
requests (the server speaks HTTP/1.1 keep-alive), reconnecting
transparently when the server closed it — after its per-connection
request cap, during shutdown, or because the network dropped.  The
event stream uses its own connection so a long poll never blocks
normal calls.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlencode, urlsplit

#: connection-level failures worth one transparent retry on a fresh
#: connection: the pooled socket may simply have been closed by the
#: server between our requests.
_RETRYABLE = (http.client.RemoteDisconnected,
              http.client.CannotSendRequest,
              http.client.BadStatusLine,
              ConnectionError)


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str,
                 payload: dict | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.payload = payload or {}


class ServiceClient:
    def __init__(self, url: str, tenant: str = "default",
                 timeout: float = 30.0) -> None:
        split = urlsplit(url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"not an http:// service URL: {url}")
        self.host = split.hostname
        self.port = split.port or 80
        self.tenant = tenant
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing -------------------------------------------------------------

    def _connect(self, timeout: float | None = None
                 ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout)

    def close(self) -> None:
        """Drop the pooled connection (safe to call any time; the
        next request reconnects)."""
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send_once(self, method: str, path: str, payload,
                   headers: dict) -> tuple[int, bytes, bool]:
        if self._conn is None:
            self._conn = self._connect()
        self._conn.request(method, path, body=payload,
                           headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, data, response.will_close

    def _request(self, method: str, path: str,
                 body: dict | None = None,
                 query: dict | None = None) -> tuple[int, bytes]:
        if query:
            path = f"{path}?{urlencode(query)}"
        headers = {"X-Tenant": self.tenant}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            status, data, closed = self._send_once(method, path,
                                                   payload, headers)
        except _RETRYABLE:
            # The pooled socket died between requests (server cap,
            # restart, network blip); retry exactly once on a fresh
            # connection.
            self.close()
            try:
                status, data, closed = self._send_once(
                    method, path, payload, headers)
            except BaseException:
                self.close()
                raise
        except BaseException:
            self.close()
            raise
        if closed:
            self.close()
        return status, data

    def _json(self, method: str, path: str, body: dict | None = None,
              query: dict | None = None) -> dict:
        status, data = self._request(method, path, body=body,
                                     query=query)
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = {}
        if status >= 400:
            raise ServiceError(status,
                               payload.get("error", data[:200].decode(
                                   "utf-8", "replace")),
                               payload)
        return payload

    # -- API surface ----------------------------------------------------------

    def healthz(self) -> dict:
        return self._json("GET", "/v1/healthz")

    def submit(self, spec: dict, priority: int = 0,
               reuse: bool = True) -> dict:
        body = dict(spec)
        body["priority"] = priority
        body["reuse"] = reuse
        return self._json("POST", "/v1/jobs", body=body)["job"]

    def jobs(self, tenant: str | None = None) -> dict:
        query = {"tenant": tenant} if tenant else None
        return self._json("GET", "/v1/jobs", query=query)

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")["job"]

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/v1/jobs/{job_id}")["job"]

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}/status")

    def report(self, job_id: str, fmt: str = "md") -> str:
        status, data = self._request(
            "GET", f"/v1/jobs/{job_id}/report", query={"format": fmt})
        if status >= 400:
            raise ServiceError(status,
                               data[:200].decode("utf-8", "replace"))
        return data.decode("utf-8")

    def results(self, job_id: str) -> list[dict]:
        status, data = self._request("GET",
                                     f"/v1/jobs/{job_id}/results")
        if status >= 400:
            raise ServiceError(status,
                               data[:200].decode("utf-8", "replace"))
        return json.loads(data.decode("utf-8"))

    def fetch(self, digest: str) -> bytes:
        status, data = self._request("GET", f"/v1/blobs/{digest}")
        if status >= 400:
            raise ServiceError(status,
                               data[:200].decode("utf-8", "replace"))
        return data

    def store_stats(self) -> dict:
        return self._json("GET", "/v1/store/stats")

    def usage(self, tenant: str | None = None) -> dict:
        query = {"tenant": tenant} if tenant else None
        return self._json("GET", "/v1/usage", query=query)["usage"]

    def summary(self, ref: str) -> dict:
        """The campaign summary payload of a job id or baseline name,
        derived from the job's share or stored result set."""
        return self._json("GET",
                          f"/v1/jobs/{ref}/summary")["summary"]

    def baselines(self) -> dict:
        return self._json("GET", "/v1/baselines")["baselines"]

    def tag_baseline(self, name: str, job_id: str) -> dict:
        return self._json("POST", "/v1/baselines",
                          body={"name": name,
                                "job": job_id})["baseline"]

    def compare(self, base: str, head: str,
                confidence: float | None = None,
                margin: float | None = None) -> dict:
        """Server-side campaign diff: *base*/*head* are job ids or
        baseline names; returns the ``repro.analysis.diff`` payload."""
        query: dict = {"base": base, "head": head}
        if confidence is not None:
            query["confidence"] = confidence
        if margin is not None:
            query["margin"] = margin
        return self._json("GET", "/v1/compare",
                          query=query)["compare"]

    def metrics_text(self) -> str:
        """The raw OpenMetrics exposition from ``GET /metrics``."""
        status, data = self._request("GET", "/metrics")
        if status >= 400:
            raise ServiceError(status,
                               data[:200].decode("utf-8", "replace"))
        return data.decode("utf-8")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.5) -> dict:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after "
                    f"{timeout:.0f}s")
            time.sleep(poll)

    def events(self, job_id: str, poll: float = 0.5,
               limit: int = 0, timeout: float | None = None):
        """Yield decoded JSONL records from the chunked event stream
        until the server ends it (terminal job or *limit* frames)."""
        query = urlencode({"poll": poll, "max": limit})
        conn = self._connect(timeout=timeout or max(
            self.timeout, poll * 4 + 30.0))
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events?{query}",
                         headers={"X-Tenant": self.tenant})
            response = conn.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data)["error"]
                except (ValueError, KeyError):
                    message = data[:200].decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            # http.client strips the chunked framing for us; the
            # payload is plain JSONL at this point.
            buffer = b""
            while True:
                block = response.read(4096)
                if not block:
                    break
                buffer += block
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
            if buffer.strip():
                yield json.loads(buffer.decode("utf-8"))
        finally:
            conn.close()
