"""Exception hierarchy shared by the codec, geometry, broker and client."""

from __future__ import annotations


class MQTTgError(Exception):
    """Base class for every error raised by this package."""


class CodecError(MQTTgError):
    """Base class for wire-format errors."""


class MalformedPacket(CodecError):
    """Input bytes cannot be parsed as a packet (truncation, bad lengths)."""


class ProtocolViolation(CodecError):
    """Structurally parseable bytes that break a protocol rule (reserved
    flag bits wrong, packet type 0, QoS 3, zero packet identifier)."""


class InvalidCoordinates(CodecError):
    """Latitude/longitude outside valid ranges or non-finite."""


class ValueTooLarge(CodecError):
    """Value does not fit the variable-length integer encoding."""


class EncodeError(CodecError):
    """A value handed to the encoder violates a type invariant."""


class InvalidPolygon(MQTTgError):
    """Polygon rejected at registration (too few vertices, self-intersection,
    longitude span >= 180 degrees, out-of-range vertices)."""


class AnchorUnknown(MQTTgError):
    """Dynamic fence whose anchor client has no known location yet."""


class ClientError(MQTTgError):
    """Base class for client-side connection errors."""


class NotConnected(ClientError):
    """Operation attempted on a closed or never-opened client handle."""


class ConnectTimeout(ClientError):
    """Broker did not accept the TCP connection or answer CONNECT in time."""


class ConnectRefused(ClientError):
    """CONNACK carried a non-zero return code."""

    def __init__(self, return_code: int):
        super().__init__(f"connection refused by broker, return code {return_code}")
        self.return_code = return_code


class SubscriptionRefused(ClientError):
    """Broker granted 0x80, or the filter failed local validation."""


class DeliveryTimeout(ClientError):
    """An acknowledged exchange did not complete: its packet, sent once and
    never resent, had no reply within 1.5 x the keep-alive, or no packet
    identifier was free."""


class RouteFormatError(MQTTgError):
    """Route or fence file rejected; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
