"""Every toolkit error and warning survives pickling, as a worker process
of the bootstrap team sends it back: same type, message and attributes."""

import inspect
import pickle

import pytest

from metadkit import errors

# constructor arguments of the classes whose __init__ takes more than a message
ARGS = {
    errors.MissingField: ("nlp", 4, "f.jsonl"),
    errors.DuplicateKey: (("q1", "1", "f16"), 7),
    errors.NonFiniteConfidence: (4, "f.jsonl"),
    errors.MissingCondition: ("2",),
    errors.TooFewTrials: (3, 8),
}
CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_round_trips_through_pickle(cls):
    error = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error) and back.args == error.args
    assert vars(back) == vars(error)


def test_the_classes_with_their_own_arguments_are_all_checked():
    own_init = {cls for cls in CLASSES if "__init__" in vars(cls)}
    assert own_init == set(ARGS)
