package webgen

import (
	"fmt"

	"repro/internal/sim"
)

// SpecFile is the file beside an archive's save.* files that holds the
// Spec of the recorded page.
const SpecFile = "page.spec"

// Spec names a synthesized page by the inputs that generate it again. An
// archive holds wire data, not the page's dependency graph, so mm-record
// saves the spec beside the archive and mm-replay rebuilds the browser's
// page from it.
type Spec struct {
	// Site and Servers select DefaultProfile(Site, Servers).
	Site    string
	Servers int
	// Resources overrides the profile's approximate resource count; 0
	// keeps the one derived from Servers.
	Resources int
	// Seed seeds GeneratePage.
	Seed uint64
}

// Page generates the page the spec names.
func (s Spec) Page() *Page {
	p := DefaultProfile(s.Site, s.Servers)
	if s.Resources > 0 {
		p.Resources = s.Resources
	}
	return GeneratePage(sim.NewRand(s.Seed), p)
}

// String renders the spec as four "key value" lines, the form ParseSpec
// reads.
func (s Spec) String() string {
	return fmt.Sprintf("site %s\nservers %d\nresources %d\nseed %d\n", s.Site, s.Servers, s.Resources, s.Seed)
}

// ParseSpec reads exactly String's form: a site name without spaces, at
// least one server and a non-negative resource count.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	n, _ := fmt.Sscanf(text, "site %s\nservers %d\nresources %d\nseed %d\n", &s.Site, &s.Servers, &s.Resources, &s.Seed)
	switch {
	case n != 4 || s.String() != text:
		return Spec{}, fmt.Errorf("page spec: want the four lines site <name>, servers <n>, resources <n>, seed <n>")
	case s.Servers < 1:
		return Spec{}, fmt.Errorf("page spec: servers %d: want at least 1", s.Servers)
	case s.Resources < 0:
		return Spec{}, fmt.Errorf("page spec: resources %d: want 0 (derived) or more", s.Resources)
	}
	return s, nil
}
