"""Two-layer stochastic modeling of a vehicle's lateral position within
its lane: a smoothed discrete-state chain for the coarse drift plus
spectrally shaped noise for the fine jitter.

Calibrate from recorded tours (or synthetic ground truth), generate
artificial offset profiles, and evaluate them against real data with the
paired snippet-metric protocol.
"""
