"""Anonymous prepaid-card payments with blinded per-unit license key delivery.

A bank issues one-time prepaid cards, a stateless seller turns each card
into one blinded exponentiation step, the buyer assembles a license
decryption key out of the steps, and an arbitrator settles the conflicts
that can arise.  See README.md for the tour.
"""

__version__ = "0.1.0"
