"""Seeded LUBM-shaped data and WatDiv-style query instances.

The data follows the LUBM schema (Guo, Pan, Heflin, J. Web Sem. 2005) at
a scale the engine can answer interactively: universities own
departments; faculty work for a department, teach courses and hold
degrees from universities; students are members of a department, take
courses and (graduate students) have an advisor.  Names and ages are
literal-valued edges.  Every choice is drawn from one
``random.Random(seed)``, so a seed fixes the bytes of the N-Triples file.

Queries are instantiated from templates in the four WatDiv shape classes
(Aluc et al., ISWC 2014): linear, star, snowflake and complex, plus
OPTIONAL / UNION / FILTER combinations.  Template constants (a
department, a faculty member, a course, an age bound) are dealt from the
generated data with a seeded generator, so every instance names vertices
that exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

UB = "http://swat.lehigh.edu/onto/univ-bench.owl#"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
PREFIX = "PREFIX ub: <%s>\n" % UB


@dataclass(frozen=True)
class Scale:
    """Entity counts; every department gets the same mix."""

    universities: int = 1
    departments: int = 2          # per university
    faculty: int = 3              # per department
    grad_students: int = 3        # per department
    undergrads: int = 3           # per department
    courses: int = 3              # per department
    external_universities: int = 2


@dataclass
class Dataset:
    ntriples: bytes
    departments: list
    faculty: list
    courses: list
    universities: list
    n_triples: int


def _iri(text):
    return "<%s>" % text


def _lit(text):
    return '"%s"' % text


def _int_lit(value):
    return '"%d"^^<%s>' % (value, XSD_INTEGER)


FACULTY_AGES = tuple(range(30, 70, 5))
STUDENT_AGES = tuple(range(18, 30, 2))


def _deal(rng, values, count):
    """count values cycling through values, in seeded order.  Attribute
    values are dealt rather than drawn independently, so the seed changes
    which vertex gets which value but not how often each value occurs:
    the degree of every value vertex, and so the work a query does, stays
    the same from seed to seed."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def generate(seed, scale=Scale()):
    """Build one LUBM-shaped graph; returns a Dataset whose ntriples are
    byte-identical for equal (seed, scale)."""
    rng = random.Random(seed)
    triples = []

    def add(s, p, o):
        triples.append("%s %s %s ." % (s, _iri(UB + p), o))

    univs = [_iri("http://www.University%d.edu" % u)
             for u in range(scale.universities + scale.external_universities)]
    n_dept = scale.universities * scale.departments
    n_fac = n_dept * scale.faculty
    n_stud = n_dept * (scale.grad_students + scale.undergrads)
    fac_age = _deal(rng, FACULTY_AGES, n_fac)
    stud_age = _deal(rng, STUDENT_AGES, n_stud)
    degree = _deal(rng, univs, n_fac + n_dept * scale.grad_students)
    depts, faculty, courses = [], [], []
    for u in range(scale.universities):
        for d in range(scale.departments):
            base = "http://www.Department%d.University%d.edu/" % (d, u)
            dept = _iri(base[:-1])
            depts.append(dept)
            add(dept, "subOrganizationOf", univs[u])
            dept_courses = []
            for c in range(scale.courses):
                course = _iri(base + "Course%d" % c)
                dept_courses.append(course)
                add(course, "name", _lit("Course%d_D%d_U%d" % (c, d, u)))
            courses.extend(dept_courses)
            dept_faculty = []
            for f in range(scale.faculty):
                prof = _iri(base + "Professor%d" % f)
                dept_faculty.append(prof)
                add(prof, "worksFor", dept)
                add(prof, "name", _lit("Professor%d_D%d_U%d" % (f, d, u)))
                add(prof, "age", _int_lit(fac_age.pop()))
                add(prof, "doctoralDegreeFrom", degree.pop())
                if f % 2:
                    add(prof, "mastersDegreeFrom", univs[f % len(univs)])
            faculty.extend(dept_faculty)
            # every course has one teacher, so teacherOf is a function
            for i, course in enumerate(dept_courses):
                add(dept_faculty[i % len(dept_faculty)], "teacherOf", course)
            # advisors and enrolments go round-robin over a seeded shuffle
            advisors = rng.sample(dept_faculty, len(dept_faculty))
            enrol = rng.sample(dept_courses, len(dept_courses))
            j = 0
            for kind, count in (("GraduateStudent", scale.grad_students),
                                ("UndergraduateStudent", scale.undergrads)):
                for s in range(count):
                    stud = _iri(base + "%s%d" % (kind, s))
                    add(stud, "memberOf", dept)
                    add(stud, "name", _lit("%s%d_D%d_U%d" % (kind, s, d, u)))
                    add(stud, "age", _int_lit(stud_age.pop()))
                    for c in range(min(2, len(enrol))):
                        add(stud, "takesCourse", enrol[(j + c) % len(enrol)])
                    j += 1
                    if kind == "GraduateStudent":
                        add(stud, "advisor", advisors[s % len(advisors)])
                        add(stud, "undergraduateDegreeFrom", degree.pop())
    text = "\n".join(triples) + "\n"
    return Dataset(text.encode("utf-8"), depts, faculty, courses, univs,
                   len(triples))


# --- query templates ------------------------------------------------------
#
# Each template maps a name to (shape class, text with %(...)s slots).
# Slots draw from the dataset: dept, prof, course, univ; student_age is a
# bound inside the student age range.

TEMPLATES = {
    # linear: paths of one to three edges anchored on a constant
    "L1": ("linear", "SELECT ?s WHERE { ?s ub:advisor %(prof)s . }"),
    "L2": ("linear",
           "SELECT ?s ?f WHERE { ?s ub:advisor ?f . ?f ub:worksFor %(dept)s . }"),
    "L3": ("linear",
           "SELECT ?s ?c WHERE { ?s ub:takesCourse ?c . "
           "%(prof)s ub:teacherOf ?c . }"),
    "L4": ("linear",
           "SELECT ?s ?d WHERE { ?s ub:memberOf ?d . "
           "?d ub:subOrganizationOf %(univ)s . }"),
    "L5": ("linear", "SELECT ?s ?c WHERE { ?s ub:takesCourse ?c . }"),
    "L6": ("linear",
           "SELECT ?s ?f ?d WHERE { ?s ub:advisor ?f . ?f ub:worksFor ?d . }"),
    "L7": ("linear",
           "SELECT ?s ?c ?f WHERE { ?s ub:takesCourse ?c . "
           "?f ub:teacherOf ?c . }"),
    # star: one centre, several attributes
    "S1": ("star",
           "SELECT ?f ?n ?c WHERE { ?f ub:worksFor %(dept)s . "
           "?f ub:name ?n . ?f ub:teacherOf ?c . }"),
    "S2": ("star",
           "SELECT ?s ?n WHERE { ?s ub:takesCourse %(course)s . "
           "?s ub:memberOf ?d . ?s ub:name ?n . }"),
    # snowflake: a star whose arms carry stars
    "F1": ("snowflake",
           "SELECT ?f ?c ?n WHERE { ?f ub:worksFor %(dept)s . "
           "?f ub:teacherOf ?c . ?f ub:mastersDegreeFrom ?u . "
           "?c ub:name ?n . }"),
    # complex: cycles through shared vertices
    "C1": ("complex",
           "SELECT ?s ?c WHERE { ?s ub:advisor %(prof)s . "
           "%(prof)s ub:teacherOf ?c . ?s ub:takesCourse ?c . }"),
    "C2": ("complex",
           "SELECT ?s ?f WHERE { ?s ub:advisor ?f . ?s ub:memberOf ?d . "
           "?f ub:worksFor ?d . ?d ub:subOrganizationOf %(univ)s . }"),
    # algebra: one- and two-edge groups combined with OPTIONAL / UNION /
    # FILTER; cheap to match, hundreds of rows to join
    "A1": ("optional",
           "SELECT ?s ?d ?c ?f WHERE { ?s ub:memberOf ?d . "
           "OPTIONAL { ?s ub:takesCourse ?c . } "
           "OPTIONAL { ?s ub:advisor ?f . } }"),
    "A2": ("union",
           "SELECT ?x ?a ?d WHERE { ?x ub:age ?a . "
           "{ ?x ub:worksFor ?d . } UNION { ?x ub:memberOf ?d . } }"),
    "A3": ("filter",
           "SELECT ?s ?c ?a WHERE { { ?s ub:takesCourse ?c . } "
           "{ ?s ub:age ?a . } FILTER(?a < %(student_age)s) }"),
    "A4": ("optional",
           "SELECT ?s ?d ?a WHERE { ?s ub:memberOf ?d . "
           "OPTIONAL { ?s ub:age ?a . FILTER(?a >= %(student_age)s) } }"),
    "A5": ("join",
           "SELECT ?s ?d ?c WHERE { { ?s ub:memberOf ?d . } "
           "{ ?s ub:takesCourse ?c . } }"),
}


class Dealer:
    """Draws template constants from per-(template, slot) shuffled decks,
    so that over a pool every value of a slot comes up equally often."""

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def draw(self, key, values):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = self.rng.sample(values, len(values))
        return deck.pop()


def instantiate(template, data, dealer):
    """Fill a template's slots with constants drawn from the dataset."""
    _, text = TEMPLATES[template]
    choices = {
        "dept": data.departments,
        "prof": data.faculty,
        "course": data.courses,
        "univ": data.universities[:1],
        "student_age": [str(a) for a in STUDENT_AGES[1:]],
    }
    slots = {slot: dealer.draw((template, slot), values)
             for slot, values in choices.items() if "%(" + slot in text}
    return PREFIX + (text % slots) + "\n"


def query_pool(data, seed, mix, size):
    """A fixed, seeded list of (template, sparql text) pairs.

    mix maps template name to an integer weight; the pool holds the
    templates in proportion to their weights, each with its own drawn
    constants, shuffled so that shapes interleave.
    """
    rng = random.Random(seed ^ 0x5EED)
    dealer = Dealer(rng)
    names = []
    total = sum(mix.values())
    for name, weight in sorted(mix.items()):
        names.extend([name] * max(1, round(size * weight / total)))
    rng.shuffle(names)
    return [(name, instantiate(name, data, dealer)) for name in names]


BGP_TEMPLATES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "S1", "S2", "F1",
                 "C1", "C2")

# The oracle backtracks over every data vertex; keep its instance at or
# under its 64-vertex limit.
ORACLE_SCALE = Scale(undergrads=2)

_K1 = {"k": 1, "strategy": "uniform", "assembly": "centralized",
       "transport": "inproc"}

# Each workload: data scale, engine set-up, query mix (template -> weight),
# pool size, and the configuration whose answers serve as the reference.
# Latencies fall into clusters, so the weights put each reported
# percentile inside a block of like queries rather than on a gap between
# clusters, where it would jump from run to run.
WORKLOADS = {
    # The default user path; LPM search in the matcher dominates.  Light
    # linear/complex queries are 15%; the median falls inside the star S1
    # block (50%), the 90th percentile inside the snowflake F1 block (25%).
    "lubm-central": {
        "scale": Scale(departments=2),
        "k": 4, "strategy": "uniform", "assembly": "centralized",
        "transport": "inproc",
        "mix": {"L1": 1, "L2": 1, "L3": 1, "L4": 1, "C1": 1, "C2": 1,
                "S2": 4, "S1": 20, "F1": 10},
        "pool": 40,
        "reference": _K1,
    },
    # Skewed fragments, BSP assembly over TCP; 1-3-edge paths with many
    # crossing matches, so assembly outweighs partial evaluation.  The
    # median falls inside the L5 block (50%), the 90th percentile inside
    # the L7 block (top 15%).
    "lubm-bsp-skew": {
        "scale": Scale(departments=3, grad_students=6, undergrads=6),
        "k": 8, "strategy": "exponential", "assembly": "distributed",
        "transport": "tcp",
        "mix": {"L2": 1, "L4": 2, "L5": 10, "L6": 3, "L7": 3, "C1": 1},
        "pool": 40,
        "reference": _K1,
    },
    # No partition map; small groups whose tables are joined by the
    # algebra.  All five templates sit in one 30-80 ms cluster.
    "lubm-algebra": {
        "scale": Scale(departments=4, faculty=6, grad_students=12,
                       undergrads=12, courses=6),
        "k": 1, "strategy": "uniform", "assembly": "centralized",
        "transport": "inproc",
        "mix": {"A1": 1, "A2": 1, "A3": 1, "A4": 1, "A5": 1},
        "pool": 40,
        "reference": {"k": 4, "strategy": "uniform",
                      "assembly": "centralized", "transport": "inproc"},
    },
}
