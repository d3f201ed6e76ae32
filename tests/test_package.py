import koszul_lab


def test_every_public_name_resolves():
    for name in koszul_lab.__all__:
        assert getattr(koszul_lab, name) is not None, name
