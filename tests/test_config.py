import pytest

from wavelearn.config import load_config
from wavelearn.errors import ConfigError


BAD = [
    ("model.conv_strides=1,1", "model.conv_strides"),  # 3 dilations, 2 strides
    ("model.conv_paddings=[]", "model.conv_paddings"),
    ("model.dilations=0,1,2", "model.dilations"),
    ("model.dropout=1.5", "model.dropout"),
    ("model.gru_layers=0", "model.gru_layers"),
    ("model.gru_hidden=0", "model.gru_hidden"),
    ("model.conv_channels=0", "model.conv_channels"),
    ("model.conv_kernel=0", "model.conv_kernel"),
    ("model.head_kernel=0", "model.head_kernel"),
    ("training.lr=-1", "training.lr"),
    ("training.lr=.nan", "training.lr"),
    ("training.gamma=-1", "training.gamma"),
    ("training.lam=-1", "training.lam"),  # would silently turn L2 off
    ("training.beta2=1", "training.beta2"),
    ("training.eps=0", "training.eps"),
    ("data.synthetic_n_per_class=0", "data.synthetic_n_per_class"),
]


@pytest.mark.parametrize("override, key", BAD, ids=[override for override, _ in BAD])
def test_values_a_run_cannot_use_are_config_errors(override, key):
    with pytest.raises(ConfigError, match=key):
        load_config(None, [override])
