"""Known-tag ("atom") membership, mirroring golang.org/x/net/html/atom.

The reference compares tags on an atom stack (content_handler.go:128-131 in
/root/reference): tags found in the atom table get a unique nonzero atom;
every other tag maps to atom 0.  Consequently two *different* unknown tags
compare equal on the stack (0 == 0) while two different known tags never do.
We reproduce that by mapping unknown tag names to the empty string.

The membership list below is the string table of the public
golang.org/x/net/html/atom package (HTML tag names, attribute names and
event-handler names — atom.Lookup accepts all of them).
"""

from __future__ import annotations

_ATOM_STRINGS = """
a abbr accept accept-charset accesskey acronym action address align allowfullscreen
allowpaymentrequest allowusermedia alt annotation annotation-xml applet area article as
aside async audio autocomplete autofocus autoplay b base basefont bdi bdo bgsound big
blink blockquote body br button canvas caption center challenge charset checked cite
class code col colgroup color cols colspan command content contenteditable contextmenu
controls coords crossorigin data datalist datetime dd default defer del desc details dfn
dialog dir dirname disabled div dl download draggable dropzone dt em embed enctype face
fieldset figcaption figure font footer for foreignObject foreignobject form formaction
formenctype formmethod formnovalidate formtarget frame frameset h1 h2 h3 h4 h5 h6 head
header headers height hgroup hidden high hr href hreflang html http-equiv i icon id
iframe image img input inputmode ins integrity is isindex ismap itemid itemprop itemref
itemscope itemtype kbd keygen keytype kind label lang legend li link list listing loop
low main malignmark manifest map mark marquee math max maxlength media mediagroup menu
menuitem meta meter method mglyph mi min minlength mn mo ms mtext multiple muted name
nav nobr noembed noframes nomodule nonce noscript novalidate object ol onabort
onafterprint onautocomplete onautocompleteerror onauxclick onbeforeprint onbeforeunload
onblur oncancel oncanplay oncanplaythrough onchange onclick onclose oncontextmenu
oncopy oncuechange oncut ondblclick ondrag ondragend ondragenter ondragexit ondragleave
ondragover ondragstart ondrop ondurationchange onemptied onended onerror onfocus
onhashchange oninput oninvalid onkeydown onkeypress onkeyup onlanguagechange onload
onloadeddata onloadedmetadata onloadend onloadstart onmessage onmessageerror
onmousedown onmouseenter onmouseleave onmousemove onmouseout onmouseover onmouseup
onmousewheel ononline onoffline onpagehide onpageshow onpaste onpause onplay onplaying
onpopstate onprogress onratechange onrejectionhandled onreset onresize onscroll
onsecuritypolicyviolation onseeked onseeking onselect onshow onsort onstalled
onstorage onsubmit onsuspend ontimeupdate ontoggle onunhandledrejection onunload
onvolumechange onwaiting onwheel optgroup optimum option output p param pattern picture
ping placeholder plaintext playsinline poster pre preload progress prompt public q
radiogroup rb readonly referrerpolicy rel required reversed rows rowspan rp rt rtc ruby
s samp sandbox scope scoped script seamless section select selected shape size sizes
slot small sortable sorted source spacer span spellcheck src srcdoc srclang srcset
start step strike strong style sub summary sup svg system tabindex table target tbody
td template textarea tfoot th thead time title tr track translate tt type
typemustmatch u ul updateviacache usemap value var video wbr width workertype wrap xmp
"""

ATOMS: frozenset[str] = frozenset(_ATOM_STRINGS.split())

# Atom used when the tag name is not in the table (Go atom 0): all unknown
# tags share it, so they compare equal on the tag stack.
UNKNOWN = ""
