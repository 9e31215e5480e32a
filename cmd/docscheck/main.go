// Command docscheck keeps the documentation honest: every cqabench
// flag the markdown docs mention must actually exist in the binary's
// -h output, and every subcommand the docs invoke must be listed by
// `cqabench help`. CI runs it against the freshly built binary, so a
// renamed or removed flag fails the build until the docs catch up.
//
// Usage:
//
//	docscheck -bin ./cqabench README.md docs/*.md
//
// The scanner looks at two kinds of doc text:
//
//   - fenced code blocks: any line mentioning the cqabench binary
//     (including `go run ./cmd/cqabench ...` and backslash-continued
//     lines) is parsed as an invocation — its subcommand must exist
//     and each of its -flags must be registered on that subcommand;
//   - inline code spans, with backticks paired left to right: a span
//     starting with "cqabench <word>" is parsed as an invocation the
//     same way, and in a span starting with "-" the first token must
//     be a flag registered on at least one subcommand.
//
// Flags inside quoted strings (query literals and the like) are
// ignored, and an <angle-bracket> placeholder in the subcommand's place
// names no subcommand. `-ignore name1,name2` exempts specific flag
// names.
//
// With `-endpoints-dir internal/server,internal/obs`, docscheck
// additionally verifies service endpoints: every /v1/... or /debug/...
// path the docs mention — in inline code spans or in fenced-block URLs
// — must match a route registered in the Go source of one of the named
// directories (mux patterns like "POST /v1/estimate", with {name}
// segments as wildcards and trailing-slash patterns as prefixes).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	bin := flag.String("bin", "", "path to the cqabench binary to interrogate")
	ignore := flag.String("ignore", "", "comma-separated flag names to exempt")
	endpointsDir := flag.String("endpoints-dir", "", "comma-separated Go source dirs whose registered HTTP routes documented endpoints must match")
	flag.Parse()
	if *bin == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: docscheck -bin <cqabench> <doc.md>...")
		os.Exit(2)
	}
	ignored := map[string]bool{}
	for _, n := range strings.Split(*ignore, ",") {
		if n = strings.TrimSpace(n); n != "" {
			ignored[n] = true
		}
	}

	flagsBySub, err := interrogate(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	allFlags := map[string]bool{}
	for _, fl := range flagsBySub {
		for name := range fl {
			allFlags[name] = true
		}
	}

	var routes []string
	if *endpointsDir != "" {
		for _, dir := range strings.Split(*endpointsDir, ",") {
			dir = strings.TrimSpace(dir)
			if dir == "" {
				continue
			}
			rs, err := collectRoutes(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "docscheck:", err)
				os.Exit(1)
			}
			routes = append(routes, rs...)
		}
		if len(routes) == 0 {
			fmt.Fprintf(os.Stderr, "docscheck: no HTTP routes found in %s\n", *endpointsDir)
			os.Exit(1)
		}
	}

	var problems []string
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
		if *endpointsDir != "" {
			for _, em := range scanDocEndpoints(string(data)) {
				if !routeMatches(em.path, routes) {
					problems = append(problems, fmt.Sprintf("%s:%d: documented endpoint %s is not registered in %s",
						path, em.line, em.path, *endpointsDir))
				}
			}
		}
		for _, m := range scanDoc(string(data)) {
			if ignored[m.flag] {
				continue
			}
			switch {
			case m.sub != "":
				fl, ok := flagsBySub[m.sub]
				if !ok {
					problems = append(problems, fmt.Sprintf("%s:%d: unknown subcommand %q", path, m.line, m.sub))
					continue
				}
				if m.flag != "" && !fl[m.flag] {
					problems = append(problems, fmt.Sprintf("%s:%d: cqabench %s has no flag -%s", path, m.line, m.sub, m.flag))
				}
			case m.flag != "" && !allFlags[m.flag]:
				problems = append(problems, fmt.Sprintf("%s:%d: no subcommand has a flag -%s", path, m.line, m.flag))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		problems = slices.Compact(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d stale doc mention(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d doc(s) consistent with %s\n", flag.NArg(), *bin)
}

// interrogate asks the binary for its subcommands and each
// subcommand's registered flags.
func interrogate(bin string) (map[string]map[string]bool, error) {
	help, _ := exec.Command(bin, "help").CombinedOutput()
	subs := parseSubcommands(string(help))
	if len(subs) == 0 {
		return nil, fmt.Errorf("no subcommands parsed from %s help", bin)
	}
	out := make(map[string]map[string]bool, len(subs))
	for _, sub := range subs {
		// -h makes the flag package print usage and exit nonzero;
		// the output is what we want regardless.
		usage, _ := exec.Command(bin, sub, "-h").CombinedOutput()
		out[sub] = parseFlags(string(usage))
	}
	return out, nil
}

var subLine = regexp.MustCompile(`^  ([a-z][a-z0-9-]*)\s{2,}\S`)

// parseSubcommands extracts subcommand names from `cqabench help`.
func parseSubcommands(help string) []string {
	var subs []string
	for _, line := range strings.Split(help, "\n") {
		if m := subLine.FindStringSubmatch(line); m != nil {
			subs = append(subs, m[1])
		}
	}
	return subs
}

var flagLine = regexp.MustCompile(`^\s+-([A-Za-z][A-Za-z0-9-]*)\b`)

// parseFlags extracts registered flag names from a `-h` usage dump.
func parseFlags(usage string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(usage, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	return out
}

// mention is one doc reference to a flag (and, for invocations in
// fenced blocks, the subcommand it was passed to).
type mention struct {
	line int
	sub  string // "" for inline code spans
	flag string // "" when only the subcommand is referenced
}

var (
	quoted    = regexp.MustCompile(`"[^"]*"|'[^']*'`)
	flagToken = regexp.MustCompile(`^-([A-Za-z][A-Za-z0-9-]*)`)
)

// scanDoc extracts every checkable mention from a markdown document.
func scanDoc(doc string) []mention {
	var out []mention
	inFence := false
	continuation := false
	lines := strings.Split(doc, "\n")
	for i, line := range lines {
		n := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continuation = false
			continue
		}
		if inFence {
			// Strip shell comments (whole-line or trailing) before parsing.
			code := line
			if idx := strings.Index(code, "#"); idx >= 0 {
				code = code[:idx]
			}
			invokes := strings.Contains(code, "cqabench")
			if invokes || continuation {
				out = append(out, scanInvocation(code, n)...)
			}
			continuation = (invokes || continuation) && strings.HasSuffix(strings.TrimRight(code, " "), "\\")
			continue
		}
		for _, span := range inlineSpans(line) {
			span = strings.TrimSpace(span)
			if strings.HasPrefix(span, "cqabench ") {
				out = append(out, scanInvocation(span, n)...)
			} else if fm := flagToken.FindStringSubmatch(span); fm != nil {
				out = append(out, mention{line: n, flag: fm[1]})
			}
		}
	}
	return out
}

// inlineSpans returns the inline code spans of a line, pairing its
// backticks left to right; an unclosed backtick opens no span.
func inlineSpans(line string) []string {
	parts := strings.Split(line, "`")
	var out []string
	for i := 1; i+1 < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// scanInvocation parses one shell line invoking cqabench: the
// subcommand is the first token after the binary, and every unquoted
// -token is a flag mention. Continuation lines carry flags only.
func scanInvocation(line string, n int) []mention {
	tokens := strings.Fields(quoted.ReplaceAllString(line, `""`))
	sub := ""
	var out []mention
	for i, tok := range tokens {
		if sub == "" {
			if tok == "cqabench" || strings.HasSuffix(tok, "/cqabench") {
				if i+1 < len(tokens) && strings.HasPrefix(tokens[i+1], "<") {
					return nil // a placeholder names no subcommand
				}
				if i+1 < len(tokens) && flagToken.FindString(tokens[i+1]) == "" {
					sub = tokens[i+1]
					out = append(out, mention{line: n, sub: sub})
				}
			}
			continue
		}
		if fm := flagToken.FindStringSubmatch(tok); fm != nil {
			out = append(out, mention{line: n, sub: sub, flag: fm[1]})
		}
	}
	if sub == "" {
		// Continuation line: flags belong to the invocation opened on a
		// previous line; without that context, check them globally.
		for _, tok := range tokens {
			if fm := flagToken.FindStringSubmatch(tok); fm != nil {
				out = append(out, mention{line: n, flag: fm[1]})
			}
		}
	}
	return out
}

// Endpoint verification: routes are read straight out of the server
// package's Go source — the Go 1.22 "METHOD /path" mux patterns plus
// plain-path HandleFunc registrations (the pprof mounts) — and every
// /v1/... or /debug/... path the docs mention must match one.

var (
	// "POST /v1/estimate" style method patterns, and bare-path
	// Handle/HandleFunc("/debug/pprof/", ...) registrations.
	methodRoute = regexp.MustCompile(`"(?:GET|POST|PUT|DELETE|PATCH) (/[^"\s]*)"`)
	plainRoute  = regexp.MustCompile(`Handle(?:Func)?\("(/[^"]*)"`)
)

// collectRoutes scans the non-test Go files of dir for registered HTTP
// route patterns.
func collectRoutes(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var routes []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		src := string(data)
		for _, m := range methodRoute.FindAllStringSubmatch(src, -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				routes = append(routes, m[1])
			}
		}
		for _, m := range plainRoute.FindAllStringSubmatch(src, -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				routes = append(routes, m[1])
			}
		}
	}
	sort.Strings(routes)
	return routes, nil
}

// routeMatches reports whether a documented path matches any registered
// route pattern: {name} segments match any single path segment, and a
// pattern ending in "/" matches as a prefix (the pprof subtree).
func routeMatches(path string, routes []string) bool {
	for _, route := range routes {
		if strings.HasSuffix(route, "/") {
			if strings.HasPrefix(path, route) || path == strings.TrimSuffix(route, "/") {
				return true
			}
			continue
		}
		if segmentsMatch(path, route) {
			return true
		}
	}
	return false
}

// segmentsMatch compares a concrete (or templated) doc path against a
// route pattern segment by segment.
func segmentsMatch(path, route string) bool {
	ps := strings.Split(path, "/")
	rs := strings.Split(route, "/")
	if len(ps) != len(rs) {
		return false
	}
	for i := range rs {
		wild := strings.HasPrefix(rs[i], "{") && strings.HasSuffix(rs[i], "}")
		if !wild && ps[i] != rs[i] {
			return false
		}
	}
	return true
}

// endpointMention is one documented service path.
type endpointMention struct {
	line int
	path string
}

var (
	// Paths inside inline code spans, optionally preceded by a method.
	inlineEndpoint = regexp.MustCompile("`(?:(?:GET|POST|PUT|DELETE|PATCH) )?(/(?:v1|debug)/[^`?#\"]*)")
	// Path components of URLs in fenced blocks (curl walkthroughs).
	urlEndpoint = regexp.MustCompile(`https?://[^/\s"']+(/(?:v1|debug)/[^\s"'?#]*)`)
)

// scanDocEndpoints extracts every /v1/... and /debug/... path a
// markdown document mentions, from inline code spans outside fences and
// URLs inside them.
func scanDocEndpoints(doc string) []endpointMention {
	var out []endpointMention
	add := func(n int, p string) {
		p = strings.TrimRight(p, "/.,;:") // prose punctuation, trailing slash
		if p != "" {
			out = append(out, endpointMention{line: n, path: p})
		}
	}
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		n := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			for _, m := range urlEndpoint.FindAllStringSubmatch(line, -1) {
				add(n, m[1])
			}
			continue
		}
		for _, m := range inlineEndpoint.FindAllStringSubmatch(line, -1) {
			add(n, strings.TrimSpace(m[1]))
		}
	}
	return out
}
