"""Operator-facing entry points: broker daemon, pub/sub client, route
replay harness and synthetic route generator.

All tools exit non-zero on any protocol or usage error so they can be
scripted in CI.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from .broker import Broker, admin_request
from .client import ClientConfig, LocationSource, MqttgClient
from .codec import ConstraintKind, GeoConstraint, GeoLocation
from .errors import MQTTgError
from .eventlog import EventLog
from .routes import (
    gen_circle,
    gen_line_equator,
    gen_line_meridian,
    load_route,
    route_length_m,
    write_route,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except MQTTgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqttg",
        description="MQTT 3.1.1 broker and tools with embedded geolocation",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("broker", help="run the broker daemon")
    p.add_argument("--host", default="0.0.0.0")
    p.add_argument("--port", type=int, default=1883)
    p.add_argument("--admin-host", default="127.0.0.1")
    p.add_argument("--admin-port", type=int, default=1884)
    p.add_argument("--fences", metavar="FILE", help="polygon fence config file")
    p.add_argument("--log", metavar="FILE", help="also append the CSV event log to FILE")
    p.set_defaults(func=cmd_broker)

    p = sub.add_parser("pub", help="publish one message")
    _client_flags(p)
    p.add_argument("-t", "--topic", required=True)
    p.add_argument("-m", "--message", default="")
    p.add_argument("--qos", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--retain", action="store_true")
    _location_flags(p)
    p.set_defaults(func=cmd_pub)

    p = sub.add_parser("sub", help="subscribe and print inbound messages")
    _client_flags(p)
    p.add_argument("-t", "--topic", action="append", required=True, help="repeatable")
    p.add_argument("--qos", type=int, default=0, choices=(0, 1, 2))
    radius = p.add_mutually_exclusive_group()
    radius.add_argument(
        "--inside-radius",
        metavar="R,LAT,LON",
        help="only receive publishes from inside the circle (radius in meters)",
    )
    radius.add_argument(
        "--outside-radius",
        metavar="R,LAT,LON",
        help="only receive publishes from outside the circle",
    )
    p.add_argument("--count", type=int, help="exit after this many messages")
    p.add_argument("--idle-timeout", type=float, help="exit after this many quiet seconds")
    _location_flags(p)
    p.set_defaults(func=cmd_sub)

    p = sub.add_parser("replay", help="replay a route file as a geo publisher")
    _client_flags(p)
    p.add_argument("route", metavar="ROUTE.csv")
    p.add_argument("-t", "--topic", default="replay/track")
    p.add_argument("--speedup", type=float, default=1.0, help="divide inter-fix sleeps by N")
    p.add_argument("--admin-host", default="127.0.0.1")
    p.add_argument("--admin-port", type=int, default=1884)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("route-gen", help="generate a synthetic route file")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--line-equator", action="store_true")
    shape.add_argument("--line-meridian", action="store_true")
    shape.add_argument("--circle", action="store_true")
    p.add_argument("--length", type=float, help="path length in meters (lines)")
    p.add_argument("--radius", type=float, help="circle radius in meters")
    p.add_argument("--fixes", type=int, required=True)
    p.add_argument("--interval", type=float, default=30.0, help="seconds between fixes")
    p.add_argument("--start-lat", type=float, default=0.0)
    p.add_argument("--start-lon", type=float, default=0.0)
    p.add_argument("-o", "--output", default="-", metavar="FILE")
    p.set_defaults(func=cmd_route_gen)

    return parser


def _client_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=1883)
    p.add_argument("--client-id", default=None)
    p.add_argument("--keep-alive", type=int, default=60)


def _location_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lat", type=float, help="attach this location to outgoing packets")
    p.add_argument("--lon", type=float)
    p.add_argument("--elev", type=float, default=0.0)


def _client_config(args, default_id: str, source: LocationSource | None) -> ClientConfig:
    return ClientConfig(
        client_id=args.client_id or default_id,
        host=args.host,
        port=args.port,
        keep_alive=args.keep_alive,
        location_source=source,
    )


def _fixed_source(args) -> LocationSource | None:
    if args.lat is None and args.lon is None:
        return None
    if args.lat is None or args.lon is None:
        raise MQTTgError("--lat and --lon must be given together")
    fix = GeoLocation(1, args.lat, args.lon, args.elev)
    return lambda: fix


def _parse_constraint(args) -> GeoConstraint | None:
    """The constraint of the one radius flag argparse lets through, if any."""
    inside = args.inside_radius is not None
    text = args.inside_radius if inside else args.outside_radius
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise MQTTgError(f"expected R,LAT,LON, got {text!r}")
    try:
        radius, lat, lon = (float(p) for p in parts)
    except ValueError:
        raise MQTTgError(f"expected R,LAT,LON as numbers, got {text!r}") from None
    kind = ConstraintKind.INSIDE_RADIUS if inside else ConstraintKind.OUTSIDE_RADIUS
    return GeoConstraint(kind, radius, lat, lon)


# -- subcommands ---------------------------------------------------------------


def cmd_broker(args) -> int:
    streams = [sys.stdout]
    log_file = None
    if args.log:
        log_file = open(args.log, "a", encoding="utf-8", newline="")
        streams.append(log_file)
    broker = Broker(
        host=args.host,
        port=args.port,
        admin_host=args.admin_host,
        admin_port=args.admin_port,
        event_log=EventLog(streams),
    )
    try:
        if args.fences:
            count = broker.load_fences(args.fences)
            print(f"# loaded {count} fences from {args.fences}", file=sys.stderr)
        broker.start()
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        broker.stop()
        if log_file is not None:
            log_file.close()


def cmd_pub(args) -> int:
    client = MqttgClient(_client_config(args, "mqttg-pub", _fixed_source(args))).connect()
    try:
        client.publish(args.topic, args.message, qos=args.qos, retain=args.retain)
    finally:
        client.disconnect()
    return 0


def cmd_sub(args) -> int:
    constraint = _parse_constraint(args)
    client = MqttgClient(_client_config(args, "mqttg-sub", _fixed_source(args))).connect()
    try:
        for topic in args.topic:
            granted = client.subscribe(topic, qos=args.qos, constraint=constraint)
            print(f"# subscribed {topic} granted qos {granted}", file=sys.stderr)
        seen = 0
        while args.count is None or seen < args.count:
            message = client.receive(timeout=args.idle_timeout)
            if message is None:
                break
            line = f"{message.topic} {message.payload.decode('utf-8', 'replace')}"
            geo = message.publisher_geolocation
            if geo is not None:
                line += f" {geo.latitude:.6f} {geo.longitude:.6f} {geo.elevation:.1f}"
            print(line, flush=True)
            seen += 1
    finally:
        client.disconnect()
    return 0


def cmd_replay(args) -> int:
    if args.speedup <= 0:
        raise MQTTgError("--speedup must be > 0")
    fixes, meta = load_route(args.route)
    if not fixes:
        raise MQTTgError(f"route file {args.route} holds no fixes")
    current: list[GeoLocation | None] = [None]
    config = _client_config(args, "mqttg-replay", lambda: current[0])
    client = MqttgClient(config).connect()
    try:
        prev = None
        for i, fix in enumerate(fixes):
            if prev is not None:
                delay = (fix.offset_seconds - prev.offset_seconds) / args.speedup
                if delay > 0:
                    time.sleep(delay)
            current[0] = GeoLocation(1, fix.latitude, fix.longitude, fix.elevation)
            # QoS 1 so the returning PUBACK proves the broker saw the fix.
            client.publish(args.topic, f"fix {i}", qos=1)
            prev = fix
        rows = admin_request(args.admin_host, args.admin_port, "DUMP-LOCATIONS")
    finally:
        client.disconnect()

    broker_distance = None
    for row in rows[:-1]:
        fields = row.split()
        if fields and fields[0] == config.client_id:
            broker_distance = float(fields[4])
    if broker_distance is None:
        raise MQTTgError(f"broker reported no location record for {config.client_id!r}")
    client_distance = route_length_m(fixes)

    print(f"fixes={len(fixes)}")
    print(f"broker_distance_m={broker_distance!r}")
    print(f"client_distance_m={client_distance!r}")
    print(f"relative_error={_rel_error(broker_distance, client_distance):.12g}")
    if "total_length_m" in meta:
        analytic = float(meta["total_length_m"])
        print(f"route_length_m={analytic!r}")
        print(f"route_relative_error={_rel_error(broker_distance, analytic):.12g}")
    if args.speedup != 1.0:
        print(f"speed_note=compressed_x{args.speedup:g}")
    return 0


def _rel_error(measured: float, reference: float) -> float:
    if reference == 0.0:
        return abs(measured)
    return abs(measured - reference) / abs(reference)


def cmd_route_gen(args) -> int:
    try:
        if args.circle:
            if args.radius is None:
                raise ValueError("--circle requires --radius")
            fixes, length = gen_circle(
                args.radius, args.fixes, args.interval, args.start_lat, args.start_lon
            )
            shape = "circle"
        else:
            if args.length is None:
                raise ValueError("line shapes require --length")
            if args.line_equator:
                fixes, length = gen_line_equator(
                    args.length, args.fixes, args.interval, start_lon=args.start_lon
                )
                shape = "line-equator"
            else:
                fixes, length = gen_line_meridian(
                    args.length, args.fixes, args.interval, args.start_lat, args.start_lon
                )
                shape = "line-meridian"
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    meta = {"shape": shape, "total_length_m": repr(length), "interval_s": f"{args.interval:g}"}
    if args.output == "-":
        write_route(sys.stdout, fixes, meta)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_route(fh, fixes, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
