"""MQTT 3.1.1 with embedded geolocation: wire codec, broker, client, tools.

Each name is imported from its own module (``mqttg.codec``,
``mqttg.broker``, ``mqttg.client``, ...); the package root re-exports none.
"""

__version__ = "0.1.0"
