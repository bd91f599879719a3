"""Random small-network generator shared by the gradient and relevance tests."""

from fedliab.nn import Conv2D, Dense, Flatten, MaxPool, ReLU, build_network, make_params
from fedliab.seeding import stream


def _randomize_biases(params, rng, scale):
    """He init zeroes biases; tests want them nonzero to stay off ReLU kinks."""
    if scale == 0:
        return params
    return make_params(
        (w, rng.uniform(-scale, scale, size=b.shape)) for w, b in params
    )


def random_dense_net(seed, max_hidden=3, bias_scale=0.3):
    """MLP with 1..max_hidden dense layers, ReLU between, positive inputs."""
    rng = stream(seed, "netgen-dense")
    dims = [int(rng.integers(3, 8))]
    n_layers = int(rng.integers(1, max_hidden + 1))
    specs = []
    for i in range(n_layers):
        out = int(rng.integers(3, 8))
        specs.append(Dense(dims[-1], out))
        dims.append(out)
        if i < n_layers - 1:
            specs.append(ReLU())
    net, params = build_network(specs, (dims[0],), seed=seed)
    params = _randomize_biases(params, rng, bias_scale)
    x = rng.uniform(0.05, 1.0, size=(dims[0],))
    return net, params, x


def random_conv_net(seed, image=9, channels=1, bias_scale=0.3):
    """Conv stack ending in Flatten -> Dense (-> ReLU -> Dense), positive inputs."""
    rng = stream(seed, "netgen-conv")
    specs = [Conv2D(channels, int(rng.integers(2, 5)), kernel=3)]
    specs.append(ReLU())
    side = image - 2
    if rng.random() < 0.6 and side >= 6:
        specs.append(MaxPool())
        side //= 2
    c_out = specs[0].out_channels
    if rng.random() < 0.5 and side >= 5:
        c2 = int(rng.integers(2, 5))
        specs.append(Conv2D(c_out, c2, kernel=3))
        specs.append(ReLU())
        side -= 2
        c_out = c2
    specs.append(Flatten())
    classes = int(rng.integers(2, 6))
    flat = c_out * side * side
    if rng.random() < 0.5:
        hidden = int(rng.integers(4, 9))
        specs.extend([Dense(flat, hidden), ReLU(), Dense(hidden, classes)])
    else:
        specs.append(Dense(flat, classes))
    net, params = build_network(specs, (channels, image, image), seed=seed)
    params = _randomize_biases(params, rng, bias_scale)
    x = rng.uniform(0.05, 1.0, size=(channels, image, image))
    return net, params, x


def random_mixed_net(seed, bias_scale=0.3):
    if seed % 2 == 0:
        return random_conv_net(seed, bias_scale=bias_scale)
    return random_dense_net(seed, bias_scale=bias_scale)
