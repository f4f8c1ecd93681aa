"""Jackpine repository benchmark (see README.md)."""
