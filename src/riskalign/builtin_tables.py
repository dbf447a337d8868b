"""Builtin alignment tables for the four supported frameworks.

Each constant is the canonical text form of one framework-to-ISSRM alignment
table and parses with mappings.parse_ruleset. Cells are kept as printed in
the source tables: sources and examples verbatim (normalized case for
sources), blank mapping type cells stay blank, and the one non-standard type
token is preserved. Multi-valued cells appear as consecutive lines sharing
the row's source and section.

Row tallies: archimate21 40, togaf91 34, dodaf202 25, iaf 45.
"""

from __future__ import annotations

from functools import lru_cache

from .eamodel import FRAMEWORKS, check_framework
from .mappings import Ruleset, parse_ruleset

ARCHIMATE21 = """\
RULESET|archimate21|ArchiMate 2.1 alignment table
value|Business Layer Metamodel|BusinessAsset::value|equivalence||Home care
product|Business Layer Metamodel|BusinessAsset|specialisation||Home Blood Analysis
contract|Business Layer Metamodel|BusinessAsset|specialisation||Contract
business object|Business Layer Metamodel|Asset|specialisation||Biomedical Analysis Prescription
meaning|Business Layer Metamodel|BusinessAsset|specialisation||Prescribed Analyses
representation|Business Layer Metamodel|ISAsset|specialisation||Biomedical Paper Prescription
business service|Business Layer Metamodel|BusinessAsset|specialisation||Home Blood Taking
business process|Business Layer Metamodel|BusinessAsset|specialisation||Take Blood Home
function|Business Layer Metamodel|BusinessAsset|specialisation||BioMedical PreAnalysis
interaction|Business Layer Metamodel|BusinessAsset|specialisation||n/a
business event|Business Layer Metamodel|NONE|specialisation||n/a
business interface|Business Layer Metamodel|ISAsset|specialisation||Home Analysis Call Center
business role|Business Layer Metamodel|BusinessAsset|specialisation||Nurse
business collaboration|Business Layer Metamodel|BusinessAsset|specialisation||n/a
location|Business Layer Metamodel|ISAsset|specialisation||Patient Home
business actor|Business Layer Metamodel|ISAsset|specialisation||An independent nurse
data object|Application layer|ISAsset|specialisation||Biomedical Prescription Data
application service|Application layer|ISAsset|specialisation||Prescription Input
application function/ interaction|Application layer|ISAsset|specialisation||Prescription Management
application interface|Application layer|ISAsset|specialisation||n/a
application component|Application layer|ISAsset|specialisation||Mobile Prescription Management
application collaboration|Application layer|ISAsset|specialisation||Prescription Mobile App
artifact|Technology layer|ISAsset|specialisation||Prescription Mobile Application
infrastructure service|Technology layer|ISAsset|specialisation||n/a
infrastructure function|Technology layer|ISAsset|specialisation||n/a
infrastructure interface|Technology layer|ISAsset|specialisation||n/a
node|Technology layer|ISAsset|specialisation||Mobile Node
system software|Technology layer|ISAsset|specialisation||Mobile OS
device|Technology layer|ISAsset|specialisation||Tablet
communication path|Technology layer|ISAsset|specialisation||n/a
network|Technology layer|ISAsset|specialisation||WiFi
structure element|Motivation Extension|NONE:because not instantiated|association||
stakeholder|Motivation Extension|Asset|||Privacy Regulator
motivational element|Motivation Extension|NONE:because not instantiated|generalisation||
driver|Motivation Extension|SecurityCriterion|generalisation||Confidentiality
assessment|Motivation Extension|Risk|generalisation||Risk of disclosure of personal data due to lack of employee's awareness
goal|Motivation Extension|SecurityObjective|association||Confidentiality of Personal Information
principle|Motivation Extension|Asset|generalisation||European Personal Data Privacy Directive
requirement|Motivation Extension|SecurityRequirement|generalisation||Access control on biomedical analysis prescription
constraint|Motivation Extension|SecurityRequirement|generalisation||n/a
"""

TOGAF91 = """\
RULESET|togaf91|TOGAF 9.1 alignment table
organization unit|Business Architecture|ISAsset|specialisation||Biomedical laboratory
organization unit|Business Architecture|Asset|association||Biomedical laboratory
actor|Business Architecture|ISAsset|specialisation||N/A
function|Business Architecture|BusinessAsset|specialisation||Biomedical pre-analysis
role|Business Architecture|BusinessAsset|specialisation||N/A
role|Business Architecture|Asset|association||N/A
process|Business Architecture|BusinessAsset|specialisation||N/A
business service|Business Architecture|BusinessAsset|specialisation||Prescription validation and input
driver|Business Architecture|SecurityCriterion|generalisation||Confidentiality
goal|Business Architecture|SecurityObjective|generalisation||Confidentiality of personal information
objective|Business Architecture|SecurityObjective|generalisation||N/A
measure|Business Architecture|Risk|generalisation||Risk of disclosure of personal data due to lack of employee's awareness
location|Business Architecture|ISAsset|specialisation||N/A
event|Business Architecture|NONE|||N/A
product|Business Architecture|BusinessAsset|specialisation||N/A
control|Business Architecture|BusinessAsset|specialisation||N/A
service quality|Business Architecture|BusinessAsset|specialisation||N/A
contract|Business Architecture|BusinessAsset|specialisation||N/A
data entity|Data Architecture|ISAsset|specialisation||Clinical information
physical data component|Data Architecture|ISAsset|specialisation||N/A
logical data component|Data Architecture|ISAsset|specialisation||N/A
information system service|Application Architecture|ISAsset|specialisation||N/A
logical application component|Application Architecture|ISAsset|specialisation||N/A
physical application component|Application Architecture|ISAsset|specialisation||N/A
logical technology component|Technology Architecture|ISAsset|specialisation||N/A
platform service|Technology Architecture|ISAsset|specialisation||N/A
physical technology component|Technology Architecture|ISAsset|specialisation||N/A
technology component|Technology Architecture|NONE|||N/A
principle|Architecture Principles, Requirements, and Roadmap|Asset|association||N/A
constraint|Architecture Principles, Requirements, and Roadmap|Asset|association||N/A
assumption|Architecture Principles, Requirements, and Roadmap|Asset|association||N/A
requirement|Architecture Principles, Requirements, and Roadmap|SecurityRequirement|generalisation||Access control on biomedical analysis prescription
gap|Architecture Principles, Requirements, and Roadmap|NONE|||N/A
work package|Architecture Principles, Requirements, and Roadmap|NONE|||N/A
capability|Architecture Principles, Requirements, and Roadmap|BusinessAsset|specialisation||N/A
service|Other|NONE|||N/A
"""

DODAF202 = """\
RULESET|dodaf202|DoDAF 2.02 alignment table
activity||BusinessAsset|specialisation||
resource||Asset|specialisation||
materiel||ISAsset|specialisation||
information||BusinessAsset|specialisation||
data||ISAsset|specialisation||
architecture description||NONE|||
performer||ISAsset|specialisation||
organization||ISAsset|specialisation||
system||ISAsset|specialisation||
person(nel) role /person type||ISAsset|specialisation||
service||ISAsset|specialisation||
capability||ISAsset+BusinessAsset|equivalence||
condition||Asset|association||
desired effect||SecurityObjective|generalisation||
measure||@attributes|equivalence||
measure type||NONE|||
location||ISAsset|specialisation||
guidance||Asset|association||
rule||Asset|association||
agreement||Asset|association||
standard||Asset|association||
project||NONE|||
vision||NONE|||
skill||BusinessAsset|specialisation||
geopolitical extent||ISAsset|specialisation||
"""

IAF = """\
RULESET|iaf|IAF alignment table
business object|Business Architecture|ISAsset|specialisation|carries_information=true|
business object|Business Architecture|NONE|specialisation|carries_information=false|
object contracts|Business Architecture|BusinessAsset|specialisation||
object contracts|Business Architecture|BusinessAsset::*|specialisation||
business event|Business Architecture|NONE|||
business activity|Business Architecture|BusinessAsset|specialisation||
business goal|Business Architecture|BusinessAsset|specialisation||
business role|Business Architecture|SecurityObjective|specialisation||
business service|Business Architecture|BusinessAsset|specialisation||
business domain|Business Architecture|BusinessAsset|specialisation||
business service collaboration contract|Business Architecture|BusinessAsset|specialisation||
business service collaboration contract|Business Architecture|BusinessAsset::*|specialisation||
physical business component|Business Architecture|ISAsset|specialisation||
business standards, rules and guidelines|Business Architecture|SecurityCriterion|generalisation||
business tasks (specifications)|Business Architecture|BusinessAsset|specialisation||
business migration specifications/implementation guidelines|Business Architecture|NONE:related to project mgt aspects of EA|||
information object|Information architecture|BusinessAsset|specialisation||
business information service|Information architecture|BusinessAsset|specialisation||
business information service collaboration contract|Information architecture|BusinessAsset|specialisation||
business information service collaboration contract|Information architecture|BusinessAsset::*|specialisation||
information domain|Information architecture|BusinessAsset|specialisation||
logical information component|Information architecture|BusinessAsset|specialisation||
logical business information component|Information architecture|BusinessAsset|specialisation||
logical business information component collaboration contract|Information architecture|BusinessAsset|specialisation||
logical business information component collaboration contract|Information architecture|BusinessAsset::*|specialisation||
physical information component|Information architecture|ISAsset|specialisation||
information migration specifications|Information architecture|NONE:related to project mgt aspects of EA|||
information standards, rules, and guidelines|Information architecture|SecurityCriterion|generalisation||
information system service|Information system architecture|ISAsset|specialisation||
information system domain|Information system architecture|ISAsset|specialisation||
information system service collaboration contract|Information system architecture|ISAsset|specialisation||
information system service collaboration contract|Information system architecture|ISAsset::*|specialisation||
logical information system component|Information system architecture|ISAsset|specialisation||
logical information system component collaboration contract|Information system architecture|ISAsset|specialisation||
logical information system component collaboration contract|Information system architecture|ISAsset::*|specialisation||
physical information system component|Information system architecture|ISAsset|specialisation||
physical information system component collaboration contract|Information system architecture|ISAsset|specialisation||
physical information system component collaboration contract|Information system architecture|ISAsset::*|specialisation||
information system standards, rules and guidelines|Information system architecture|SecurityRequirement|generalisation||
technology infrastructure service|Technology infrastructure architecture|ISAsset|specialisation||
technology infrastructure service collaboration contract|Technology infrastructure architecture|ISAsset|specialisation||
technology infrastructure domain|Technology infrastructure architecture|ISAsset|specialisation||
logical technology infrastructure component|Technology infrastructure architecture|ISAsset|specialisation||
logical technology infrastructure component collaboration contract|Technology infrastructure architecture|ISAsset|specialisation||
logical technology infrastructure component collaboration contract|Technology infrastructure architecture|ISAsset::*|specialisation||
physical technology infrastructure component|Technology infrastructure architecture|ISAsset|specialisation||
physical technology infrastructure component collaboration contract|Technology infrastructure architecture|ISAsset|specialisation||
physical technology infrastructure component collaboration contract|Technology infrastructure architecture|ISAsset::*|specialisation||
technology infrastructure standards, rules and guidelines|Technology infrastructure architecture|SecurityRequirement|generalisation||
technology infrastructure migration specifications|Technology infrastructure architecture|NONE:related to project mgt aspects of EA|||
logical components|Quality aspects of architecture|Control|equivalence||
control|Quality aspects of architecture|Control|equivalence||
physical components|Quality aspects of architecture|Control|equivalence||
quality standards, rules and guidelines|Quality aspects of architecture|SecurityRequirement|generalisation||
service level agreement (sla)|Quality aspects of architecture|Control|specification||
"""

# One table text per framework id, in FRAMEWORKS order.
_TABLES = dict(zip(FRAMEWORKS, (ARCHIMATE21, TOGAF91, DODAF202, IAF), strict=True))


@lru_cache(maxsize=None)
def builtin_ruleset(framework: str) -> Ruleset:
    """Return the builtin ruleset for a framework id."""
    return parse_ruleset(builtin_table_text(framework))


def builtin_table_text(framework: str) -> str:
    """Return the embedded table text for a framework id."""
    return _TABLES[check_framework(framework)]
