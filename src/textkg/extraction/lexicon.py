"""Embedded coarse POS lexicon and suffix rules.

An embedded word list keeps the tagger dependency-free and deterministic.
Lookup priority: closed classes first, then irregular verb forms, then
adjectives and nouns, then verb lemmas, so words listed in several open
classes resolve to the less verb-happy reading (e.g. bare "clean" is ADJ,
"cleans" still resolves to VERB through the lemma set).
"""

from __future__ import annotations

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
DET = "DET"
PRON = "PRON"
ADP = "ADP"
ADV = "ADV"
NUM = "NUM"
PUNCT = "PUNCT"
OTHER = "OTHER"

_DET = """
a an the this that these those each every either neither some any no none
another such both all half which what whose whatever whichever
"""

_PRON = """
i you he she it we they me him her us them myself yourself himself herself
itself ourselves yourselves themselves oneself mine yours hers ours theirs
who whom whoever whomever someone anyone everyone somebody anybody everybody
nobody something anything everything nothing personx persony personz
"""

_ADP = """
aboard about above across after against along amid among around as at before
behind below beneath beside besides between beyond by concerning despite down
during except for from in inside into like near of off on onto out outside
over past per since through throughout till to toward towards under
underneath until unto up upon via with within without
"""

_CONJ = """
and or but nor so yet although though because while whereas unless whether
if than once
"""

_ADV = """
not never always often sometimes usually rarely seldom again soon already
still just only very too quite rather almost nearly enough here there now
then today tomorrow yesterday tonight away back forth instead perhaps maybe
together apart twice else ever even indeed really truly well later earlier
far further ahead abroad anywhere everywhere nowhere somewhere anymore
anyway meanwhile moreover however nevertheless nonetheless otherwise
therefore thus hence furthermore elsewhere somehow somewhat upstairs
downstairs downtown indoors outdoors overseas nearby forever ago
"""

_NUM = """
zero one two three four five six seven eight nine ten eleven twelve thirteen
fourteen fifteen sixteen seventeen eighteen nineteen twenty thirty forty
fifty sixty seventy eighty ninety hundred thousand million billion trillion
dozen
"""

# Irregular and auxiliary verb forms that no suffix rule can reach.
_VERB_FORMS = """
am is are was were been being has had having does did done goes went gone
will would can could shall should may might must ought
made took taken gave given got gotten ran came knew known thought found told
became left felt kept held wrote written stood heard meant met paid sat
spoke spoken led grew grown lost fell fallen sent built understood drew
drawn broke broken spent rose risen drove driven wore worn chose chosen ate
eaten drank drunk slept won bought caught taught fought sought sold flew
flown threw thrown blew blown hid hidden bit bitten swam swum rode ridden
sang sung rang rung shook shaken woke woken froze frozen stole stolen began
begun bore borne beaten bent bound bled bred brought burnt burst clung crept
dealt dug fed fled flung forbade forbidden forgot forgotten forgave forgiven
hung knelt laid lain lent lit mistook mistaken pled proved proven quit rid
said sank sewn shone shot shrank shrunk slid slung spat sped spelt spilt
spun sprang stank struck strung stuck stung strove swore sworn swept
swollen swung tore torn undertook undertaken wept withdrew withdrawn wound
wrung
"""

_ADJ = """
able absent active actual advanced afraid aggressive alive amazing ancient
angry annual anxious ashamed asleep automatic available average awake aware
awesome awful bad bare basic beautiful best better big bitter black blind
blue bold boring brave brief bright brilliant broad brown busy calm capable
careful careless cheap chief civil classic clean clear clever close cloudy
cold colorful comfortable common complete complex confident constant cool
correct crazy creative criminal critical crooked cruel curious curly current
cute daily dangerous dark dead deadly deaf dear decent deep delicate
delicious dependent desperate different difficult digital direct dirty
distant divine dizzy domestic double dramatic dry dull dumb eager early
eastern easy economic effective efficient elderly electric electronic
elegant emotional empty enormous entire equal essential ethnic evil exact
excellent exciting expensive external extra extreme fair faithful false
famous fancy fast fat federal female final financial fine firm fit flat
foolish foreign formal former fortunate free frequent fresh friendly full
funny future general generous gentle genuine giant glad global golden good
gorgeous grand grateful gray great green gross guilty handsome handy happy
hard harsh healthy heavy helpful helpless hidden high hollow holy honest
horrible hot huge human humble hungry icy ideal ill illegal immediate
important impossible impressive incredible independent informal innocent
intelligent intense internal international jealous joint junior keen key
kind large late lazy leading legal lethal likely little lively local logical
lonely long loose loud lovely low loyal lucky mad main major male massive
mature maximum mean medical medium mental messy mighty military minimum
minor mobile modern modest moral narrow nasty national native natural
naughty neat necessary negative nervous new nice noble noisy normal northern
notable nuclear numerous obvious odd official okay old open opposite
optimistic orange ordinary original other outdoor overall pale parallel
particular patient peaceful perfect permanent personal physical pink plain
plastic pleasant polite political poor popular positive possible powerful
practical precious pregnant premium present pretty previous primary prime
principal private probable professional proper proud public pure purple
quick quiet rainy rapid rare raw ready real reasonable recent red regular
relative relevant reliable religious remarkable remote responsible rich
ridiculous romantic rough round royal rubber rude rural sacred sad safe
salty same scared scientific secret secure selfish senior sensible sensitive
separate serious severe shallow sharp shiny short shy sick significant
silent silly silver similar simple single skilled sleepy slight slim
slippery slow small smart smooth social soft solar solid sorry southern
spare special specific spicy spiritual square stable standard steady steep
sticky stiff straight strange strict strong stupid subtle sudden sufficient
suitable sunny super sure sweet swift tall technical temporary tender
terrible thick thin thirsty tight tiny tired top total tough toxic
traditional tragic tremendous tricky tropical typical ugly ultimate unable
unfair unique united unknown unlikely unusual upper upset urban useful
useless usual valid valuable vast vertical violent visible visual vital
warm weak wealthy weekly weird western wet white whole wide wild willing
windy wise wonderful wooden worthy wrong yellow young
first second third fourth fifth sixth seventh eighth ninth tenth
"""

_NOUN = """
basketball piano hammer party night doctor store manager cashier mistake
agenda accordion havoc beer video game soccer morning evening thing king
ring spring string wing ceiling meeting wedding building painting feeling
family city money people person man woman child children boy girl friend
house home school student teacher book table chair door window car road
street tree water food bread milk coffee tea dog cat horse bird fish music
song movie film photo picture paper letter word sentence name number year
month week day hour minute time life world country town village market shop
office hospital church bridge river mountain sea ocean island forest field
farm garden park station airport train bus ticket bag box phone computer
internet television radio clock shoe shirt dress hat coat glass cup plate
knife fork spoon bottle bowl dinner lunch breakfast meal rice meat fruit
apple banana egg sugar salt pepper oil butter cheese chicken beef pork soup
cake cookie candy chocolate snow rain wind cloud storm sun moon star sky
weather fire light earth ground floor wall roof room kitchen bathroom
bedroom yard fence gate pool beach sand stone rock metal gold wood leather
wool cotton silk card board nail screw tool machine engine wheel tire fuel
energy power electricity battery wire rope chain lock bell button pocket
wallet purse coin dollar cent price tax bill debt loan bank account credit
business company job career salary wage boss employee worker customer
client trade product goods service quality brand team player coach captain
referee goal score competition prize winner loser champion league club
member group crowd audience fan stadium court pitch track gym health
disease illness medicine drug pill nurse clinic dentist surgery pain ache
fever flu cough injury wound blood bone muscle skin hair eye ear nose mouth
tooth teeth tongue lip neck shoulder arm elbow wrist hand finger thumb leg
knee ankle foot feet toe heart lung stomach brain body father mother parent
brother sister son daughter uncle aunt cousin grandfather grandmother
husband wife baby kid teenager adult neighbor stranger guest visitor queen
prince princess president minister mayor judge lawyer police officer
soldier army navy war peace battle enemy weapon gun bomb bullet education
lesson class course exam grade homework subject math science history
geography language english grammar question answer problem solution idea
opinion fact truth story news article magazine newspaper journal diary note
message email address code list menu recipe ingredient investment key
assembly monopoly butterfly jelly belly bully ally lily bed speed deed
greed seed shed sled situation character wish effect intent reason location
object property mall unicorn love result concept entity head tail text
input output model agent item event action goal plan
"""

_VERB = """
accept accomplish achieve acknowledge acquire act adapt add address adjust
admire admit adopt advise afford agree aim allow analyze announce annoy
answer anticipate apologize appear apply appoint appreciate approach
approve argue arise arrange arrest arrive ask assume assure attach attack
attempt attend attract avoid bake balance ban bear beat become beg begin
behave believe belong bend bet betray bite blame bleed bless block blow
boil borrow bother bounce bow break breathe breed bring broadcast brush
build burn bury buy calculate call calm camp cancel capture care carry
catch cause celebrate challenge change charge chase chat cheat check cheer
chew choose chop claim clap climb cling collapse collect combine come
command comment commit communicate compare compete complain complete
concentrate concern conclude confess confirm confuse connect consider
consist contain continue contribute control convince cook copy cost cough
count cover crash crawl create cross cry cut damage dance dare deal decide
declare decorate decrease defeat defend define delay deliver demand deny
depend describe deserve design destroy develop die dig disagree disappear
discover discuss dislike distribute disturb dive divide do donate doubt
drag draw dream drink drive drop drown earn eat educate emerge employ
enable encourage end endure engage enjoy ensure enter entertain escape
establish estimate examine exchange excite excuse exercise exist expand
expect experience explain explode explore express extend face fail fasten
fear feed feel fight fill find finish fix flee float flow fly fold follow
forbid force forget forgive form gain gather generate give go grab grant
greet grind grow guarantee guard guess guide handle hang happen harm hate
have heal hear heat help hesitate hide hire hit hold hope hug hunt hurry
hurt identify ignore imagine impress improve include increase indicate
inform injure insist install intend interfere interrupt introduce invent
invest investigate invite involve iron join joke jump justify keep kick
kill kiss kneel knit knock know label lack land last laugh launch lay lead
lean leap learn leave lend let lick lie lift limit listen live load look
lose love maintain make manage march mark marry match matter mean measure
meet melt mention mind miss mix motivate mourn move mutter nod notice
object observe obtain occur offer operate order organize owe own pack
paint participate pass pause pay perform permit persuade pick place plan
plant play plead point pour practice praise pray predict prefer prepare
press pretend prevent print proceed produce promise promote pronounce
propose protect protest prove provide publish pull punch punish purchase
push put qualify race reach react read realize receive recognize recommend
record recover reduce refer reflect refuse regard regret reject relate
relax release rely remain remember remind remove rent repair repeat
replace reply report represent request require rescue research resist
resolve respect respond rest retire return reveal review reward ride risk
roar rob roll rub ruin rule rush sail satisfy save say scare scatter scold
scratch scream seal search seat see seek seem select sell send separate
serve set settle sew shake share shine shoot shout show shrink shut sigh
sign signal sing sink sit ski skip slap sleep slice slide slip smell smile
smoke snap sneeze snore soak solve sort sound sow speak specify spell
spend spill spin spit split spoil spread squeeze stand stare start starve
state stay steal step stick stir stop stretch strike struggle study submit
succeed suck suffer suggest suit supply support suppose surprise surround
survive suspect swear sweep swell swim swing switch take talk tap taste
teach tear tease tell tempt tend test thank think threaten throw tie touch
train translate trap travel treat tremble trust try turn type understand
undergo undertake unite unlock update urge use vanish vary visit vote wait
wake walk wander want warn wash waste watch wave weaken wear weep weigh
welcome whisper whistle wipe wish withdraw wonder work worry wrap wreak
wrestle write yell
"""

# Verb lemmas whose bare form resolves to another class above but whose
# inflections should still read as verbs ("likes", "upsets", "stores").
_EXTRA_VERB_LEMMAS = """
like upset store rain snow light lock judge note question fish park value
name wish plan score
"""


def _words(block: str) -> list[str]:
    return block.split()


def _build_lexicon() -> dict[str, str]:
    lexicon: dict[str, str] = {}
    for block, tag in (
        (_DET, DET), (_PRON, PRON), (_ADP, ADP), (_CONJ, OTHER),
        (_ADV, ADV), (_NUM, NUM), (_VERB_FORMS, VERB), (_ADJ, ADJ),
        (_NOUN, NOUN), (_VERB, VERB),
    ):
        for w in _words(block):
            lexicon.setdefault(w, tag)
    return lexicon


LEXICON: dict[str, str] = _build_lexicon()

VERB_LEMMAS: frozenset[str] = frozenset(
    _words(_VERB) + _words(_EXTRA_VERB_LEMMAS)
    + ["be", "have", "do"]
)

# Verbs skipped as heads of verb-phrase chunks.
AUX_LEMMAS: frozenset[str] = frozenset(
    "be have do will would can could shall should may might must ought".split()
)

IRREGULAR_VERB_LEMMA: dict[str, str] = {
    "am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do",
    "goes": "go", "went": "go", "gone": "go",
    "made": "make", "took": "take", "taken": "take", "gave": "give",
    "given": "give", "got": "get", "gotten": "get", "ran": "run",
    "came": "come", "knew": "know", "known": "know", "thought": "think",
    "found": "find", "told": "tell", "became": "become", "left": "leave",
    "felt": "feel", "kept": "keep", "held": "hold", "wrote": "write",
    "written": "write", "stood": "stand", "heard": "hear", "meant": "mean",
    "met": "meet", "paid": "pay", "sat": "sit", "spoke": "speak",
    "spoken": "speak", "led": "lead", "grew": "grow", "grown": "grow",
    "lost": "lose", "fell": "fall", "fallen": "fall", "sent": "send",
    "built": "build", "understood": "understand", "drew": "draw",
    "drawn": "draw", "broke": "break", "broken": "break", "spent": "spend",
    "rose": "rise", "risen": "rise", "drove": "drive", "driven": "drive",
    "wore": "wear", "worn": "wear", "chose": "choose", "chosen": "choose",
    "ate": "eat", "eaten": "eat", "drank": "drink", "drunk": "drink",
    "slept": "sleep", "won": "win", "bought": "buy", "caught": "catch",
    "taught": "teach", "fought": "fight", "sought": "seek", "sold": "sell",
    "flew": "fly", "flown": "fly", "threw": "throw", "thrown": "throw",
    "blew": "blow", "blown": "blow", "hid": "hide", "hidden": "hide",
    "bit": "bite", "bitten": "bite", "swam": "swim", "swum": "swim",
    "rode": "ride", "ridden": "ride", "sang": "sing", "sung": "sing",
    "rang": "ring", "rung": "ring", "shook": "shake", "shaken": "shake",
    "woke": "wake", "woken": "wake", "froze": "freeze", "frozen": "freeze",
    "stole": "steal", "stolen": "steal", "began": "begin", "begun": "begin",
    "said": "say",
}
