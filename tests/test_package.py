import rifslab


def test_public_names_resolve():
    names = rifslab.__all__
    assert [n for n in names if not hasattr(rifslab, n)] == []
    assert len(set(names)) == len(names)
    # the sampled Lipschitz check and the one-point apply live in the tests
    for gone in ("apply", "validate_lip_bounds", "LipValidation"):
        assert gone not in names
        assert not hasattr(rifslab, gone)
