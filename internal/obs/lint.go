package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Lint checks a Prometheus text exposition against the repository's
// metric conventions and returns one message per violation:
//
//   - every family name starts with prefix (secmemd_)
//   - every family that emits samples has # HELP and # TYPE lines
//   - no family is declared twice (duplicate registration)
//   - no series (name + label set) appears twice
//   - sample values parse as floats
//
// The CI smoke step and the chaos harness both run this over a live
// daemon's /metrics output.
func Lint(text, prefix string) []string {
	var problems []string
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	seriesSeen := map[string]bool{}
	sampled := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		where := fmt.Sprintf("line %d", ln+1)
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				problems = append(problems, where+": malformed comment: "+line)
				continue
			}
			name := fields[2]
			switch fields[1] {
			case "HELP":
				if helpSeen[name] {
					problems = append(problems, where+": duplicate HELP for "+name)
				}
				helpSeen[name] = true
			case "TYPE":
				if typeSeen[name] {
					problems = append(problems, where+": duplicate TYPE for "+name)
				}
				typeSeen[name] = true
			}
			if !strings.HasPrefix(name, prefix) {
				problems = append(problems, where+": family "+name+" lacks prefix "+prefix)
			}
			continue
		}
		series, value, ok := splitSample(line)
		if !ok {
			problems = append(problems, where+": malformed sample: "+line)
			continue
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			problems = append(problems, where+": bad value in: "+line)
		}
		if seriesSeen[series] {
			problems = append(problems, where+": duplicate series "+series)
		}
		seriesSeen[series] = true
		fam := familyOf(series)
		sampled[fam] = true
		if !strings.HasPrefix(fam, prefix) {
			problems = append(problems, where+": series "+series+" lacks prefix "+prefix)
		}
	}
	for fam := range sampled {
		if !helpSeen[fam] {
			problems = append(problems, "family "+fam+" has samples but no HELP")
		}
		if !typeSeen[fam] {
			problems = append(problems, "family "+fam+" has samples but no TYPE")
		}
	}
	return problems
}

// splitSample separates "name{labels} value [ts]" into the series key
// and its value string.
func splitSample(line string) (series, value string, ok bool) {
	// The label block may contain spaces inside quoted values, so split
	// at the closing brace when one exists.
	if i := strings.Index(line, "}"); i >= 0 {
		rest := strings.TrimLeft(line[i+1:], " ")
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			return "", "", false
		}
		return line[:i+1], fields[0], true
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

// familyOf maps a series key to its metric family: labels are dropped
// and the histogram sub-series suffixes fold into the parent name.
func familyOf(series string) string {
	name := series
	if i := strings.Index(name, "{"); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParseSamples extracts every series and its value from a text
// exposition, so tests and the fault harness can assert on individual
// series without a Prometheus client.
func ParseSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := splitSample(line)
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[series] = v
		}
	}
	return out
}
