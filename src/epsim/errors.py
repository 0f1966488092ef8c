"""Exception types shared across the package."""


class SuiteError(Exception):
    """Base class for all domain errors raised by this package."""


class CycleDetected(SuiteError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(map(str, self.cycle)))


class DegenerateTotal(SuiteError):
    pass


class DegeneratePath(SuiteError):
    pass


class InvalidScenario(SuiteError):
    pass


class InfeasibleInstance(SuiteError):
    def __init__(self, instance_id, demand, available):
        self.instance_id = instance_id
        super().__init__(
            f"instance {instance_id} demands {demand} nodes, cluster has {available}"
        )


class InvalidCluster(SuiteError):
    pass


class InvalidDuration(SuiteError):
    def __init__(self, instance_id, duration_s):
        self.instance_id = instance_id
        super().__init__(f"instance {instance_id} lasts {duration_s!r} s; a duration must be finite and >= 0")


class FormatError(SuiteError):
    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = f"{path or '<input>'}:{line}" if line is not None else str(path or "<input>")
        super().__init__(f"{where}: {message}")


class MissingKey(SuiteError):
    def __init__(self, key, path=None):
        self.key = key
        where = f"{path}: " if path else ""
        super().__init__(f"{where}missing mandatory key {key!r}")


class ModeMismatch(SuiteError):
    pass


class JobNameMismatch(SuiteError):
    pass


class DuplicateSource(SuiteError):
    pass


class SchemaError(SuiteError):
    pass


class NegativeValue(SuiteError):
    pass


class MissingProfile(SuiteError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no unified profile for job {name!r}")


class InvalidScale(SuiteError):
    pass


class WorkdirUnwritable(SuiteError):
    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"working directory {path} is not writable: {reason}")
