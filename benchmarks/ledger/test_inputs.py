"""The benchmark's inputs are a function of the seed and nothing else."""

import inputs


def test_seed_1987_stream_is_pinned():
    # A change here means every earlier result was measured on different
    # inputs: re-measure the baseline before comparing anything to it.
    assert inputs.digest(1987) == (
        "d0321acbaa944aa177e03969cd4cf257f682aae198fe79ae4cd157777b80fbff"
    )


def test_other_seeds_give_other_inputs():
    assert inputs.digest(7) != inputs.digest(1987)
    assert inputs.digest(7) == inputs.digest(7)


def test_population_shape():
    population = inputs.Inputs(1987, 2000)
    assert len(set(population.paths)) == 2000
    # the cluster shards on the first component
    assert len({path[0] for path in population.paths}) >= 256
    value = population.value(3, 5)
    assert value["created"] == 5 and len(value["data"]) == inputs.VALUE_BYTES
    assert value != population.value(3, 6)


def test_stream_mix_and_range():
    population = inputs.Inputs(1987, 2000)
    evens = list(range(0, 2000, 2))
    stream = population.stream("embedded_durable/0", evens)
    assert len(stream) == inputs.STREAM_BLOCK
    assert all(idx % 2 == 0 for _, idx in stream)
    binds = sum(is_bind for is_bind, _ in stream) / len(stream)
    assert abs(binds - inputs.BIND_SHARE) < 0.01
