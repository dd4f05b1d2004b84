import hashlib
from bisect import bisect_right

import numpy as np
import pytest

from tagsplit import ConfigError
from tagsplit.synth import _cdf, markov_text, zipf_weights

# SHA-256 of the text that writes each sentence on its own line, recorded
# when every token was drawn with two rng.choice calls (numpy 2.4.6); the
# last is the reference corpus of the novel benchmark workloads
GOLDEN_TEXT_SHA256 = {
    (8000, 3000, 16, 11): "1d4524ae64baf28faee0a018a927e9cde3209216467351d32919f5acdb328e34",
    (20000, 2000, 16, 5): "a9781e5ad39d38d623bc7145a43f2d6f2bcf0954124b61764d8718a118088917",
    (60000, 4000, 20, 3): "c8aa07bef7264fe8fa8734bd3ff28b847281d97db11b30c65bae42ef42588f55",
    (1, 24, 24, 3): "269a09813a7a34fb061380f2e5197564deb6ed69765e546a190b77e0b6e3f090",
    (140000, 10000, 24, 7): "77b0d6b091ad3ec7599f8ff994310e143aeca051f214a9c6242c877ea4b4bb7f",
}


@pytest.mark.parametrize("n_tokens, n_types, n_states, seed", sorted(GOLDEN_TEXT_SHA256))
def test_text_matches_recorded_sha256(n_tokens, n_types, n_states, seed):
    sents = markov_text(n_tokens, n_types=n_types, n_states=n_states, seed=seed)
    text = "".join(" ".join(s) + "\n" for s in sents)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_TEXT_SHA256[(n_tokens, n_types, n_states, seed)]


@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_bisecting_the_cdf_draws_as_choice_does(n):
    # one double per draw, and the same index for it
    p = zipf_weights(n) if n % 2 else np.random.default_rng(n).dirichlet(np.ones(n))
    by_choice, by_bisect = np.random.default_rng(n), np.random.default_rng(n)
    cdf = _cdf(p)
    for _ in range(2000):
        assert int(by_choice.choice(n, p=p)) == bisect_right(cdf, by_bisect.random())
    assert by_choice.random() == by_bisect.random()


@pytest.mark.parametrize("n_states", [2, 3])
def test_fewer_than_four_states_rejected(n_states):
    # each state draws 3 to 8 successors out of fewer than n_states
    with pytest.raises(ConfigError, match="n_states >= 4"):
        markov_text(300, n_types=30, n_states=n_states, seed=1)
    sents = markov_text(300, n_types=30, n_states=4, seed=1)
    assert sum(map(len, sents)) >= 300


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_a_state_with_no_words_is_a_config_error(seed):
    # 24 types over 24 states leave some states empty, and these seeds
    # reach one in the first sentence
    with pytest.raises(ConfigError, match="has no words"):
        markov_text(1, n_types=24, n_states=24, seed=seed)
