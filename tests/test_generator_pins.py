"""Pinned draws of the three numpy ``Generator`` methods the run uses.

Every golden digest rests on numpy: on PCG64 and ``SeedSequence`` behind
``engine.make_stream``, and on three ``Generator`` methods drawn from
those streams (``integers`` in ``LbtNode.draw_backoff``, ``random`` in
``place_users``, ``standard_exponential`` in ``fading_gains``). NEP 19
keeps bit-generator streams stable across numpy versions, but not the
values a method draws from them. A numpy upgrade that moves a draw fails
the one test here that names it, before it fails any golden digest; if
the raw words moved too, the bit generator or its seeding did.

The values were recorded with numpy 2.4.6, floats as ``float.hex``.
"""

from coexsim.engine import make_stream


def test_streams_give_the_recorded_raw_words():
    words = {sid: [hex(w) for w in
                   make_stream(1, sid).bit_generator.random_raw(2).tolist()]
             for sid in ("lte-00", "placement", "lte-07")}
    assert words == {
        "lte-00": ["0x87e46fc3cd313ca1", "0x7a2382b5f7a6e72"],
        "placement": ["0x6d1454658cf13dde", "0xa328ee9f287444e9"],
        "lte-07": ["0xfe1dae74e26f8665", "0xb74238d20003b699"],
    }


def test_scalar_integers_draw_the_recorded_values():
    # one scalar draw at a time over LbtParams' default window of 16
    rng = make_stream(1, "lte-00")
    assert [int(rng.integers(0, 16)) for _ in range(8)] == [
        12, 8, 5, 0, 0, 1, 0, 6]


def test_random_draws_the_recorded_values():
    draws = make_stream(1, "placement").random(2)
    assert [float(x).hex() for x in draws] == [
        "0x1.b451519633c4ep-2", "0x1.4651dd3e50e88p-1"]


def test_standard_exponential_draws_the_recorded_values():
    draws = make_stream(1, "lte-07").standard_exponential(3)
    assert [float(x).hex() for x in draws] == [
        "0x1.7987e7a247b23p+1", "0x1.29613aac61be7p-2",
        "0x1.73014df84fde4p+0"]


def test_split_standard_exponential_draws_are_one_draw():
    # A hap delivery block draws a user's gains 64 at a time where each
    # grant once drew its own; that changes no gain because split draws
    # from a stream give the values of one draw of their total length.
    split = make_stream(1, "lte-07")
    parts = [split.standard_exponential(k).tolist() for k in (8, 7, 64, 3)]
    whole = make_stream(1, "lte-07").standard_exponential(82).tolist()
    assert [x.hex() for part in parts for x in part] == [
        x.hex() for x in whole]
