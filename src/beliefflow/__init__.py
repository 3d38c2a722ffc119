"""Online learning with Gaussian weight beliefs updated by linear flows.

The learner keeps a Gaussian over the model weights, samples a weight
vector each round, takes one gradient step on the sample, and moves the
whole belief through the linear map that is consistent with that step
while staying as close as possible to the prior in KL.
"""

__version__ = "0.1.0"
