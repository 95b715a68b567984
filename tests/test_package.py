import turanvdc


def test_all_resolves_without_duplicates():
    assert len(turanvdc.__all__) == len(set(turanvdc.__all__))
    for name in turanvdc.__all__:
        assert hasattr(turanvdc, name), name
