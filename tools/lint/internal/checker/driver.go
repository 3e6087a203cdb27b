package checker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/load"
)

// Main is the delproplint entry point. It implements the command-line
// contract the go command expects of a -vettool:
//
//	delproplint -V=full              print a versioned identity line
//	delproplint -flags               print supported flags as JSON
//	delproplint [flags] file.cfg     analyze one package (vet protocol)
//	delproplint [flags] [patterns]   analyze packages in the current module
//
// Exit status: 0 no findings, 1 tool failure, 2 findings reported.
func Main(analyzers ...*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("delproplint: ")

	fs := flag.NewFlagSet("delproplint", flag.ExitOnError)
	fs.Var(versionFlag{}, "V", "print version and exit (the go command probes this)")
	printFlags := fs.Bool("flags", false, "print the tool's flags in JSON (the go command probes this)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")

	enabled := make(map[string]*bool)
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+firstLine(a.Doc))
	}
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "delproplint: static enforcement of the delprop solver-stack invariants (docs/STATIC_ANALYSIS.md)")
		fmt.Fprintln(os.Stderr, "usage: delproplint [flags] [package patterns | file.cfg]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:])

	if *printFlags {
		emitFlagsJSON(fs)
		os.Exit(0)
	}

	// Honor explicit -<analyzer>=false/true selections the way
	// multichecker does: if any analyzer was explicitly enabled, run only
	// the explicitly enabled set; otherwise run all minus the explicitly
	// disabled ones.
	explicitTrue := false
	explicitly := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) {
		if _, ok := enabled[f.Name]; ok {
			explicitly[f.Name] = true
			if *enabled[f.Name] {
				explicitTrue = true
			}
		}
	})
	var run []*analysis.Analyzer
	for _, a := range analyzers {
		on := *enabled[a.Name]
		if explicitTrue {
			on = on && explicitly[a.Name]
		}
		if on {
			run = append(run, a)
		}
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetMode(args[0], run, *jsonOut))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(patternsMode(args, run, *jsonOut))
}

// vetMode analyzes the single package described by a vet config file.
// Whole-module analyzers need every package at once, so they do not run
// here.
func vetMode(cfgPath string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	cfg, err := load.ReadVetConfig(cfgPath)
	if err != nil {
		log.Print(err)
		return 1
	}
	// The suite exchanges no facts between packages, so a facts-only
	// invocation has nothing to compute; the output file must still
	// appear or the go command reports a missing vet result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Print(err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	pkg, err := load.VetCfg(cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, e := range pkg.TypeErrors {
			fmt.Fprintln(os.Stderr, e)
		}
		return 1
	}
	findings, err := RunScoped(pkg, analyzers)
	if err != nil {
		log.Print(err)
		return 1
	}
	return report(findings, jsonOut)
}

// patternsMode analyzes every package matching the patterns below the
// current directory's module.
func patternsMode(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	pkgs, err := load.Patterns(".", patterns)
	if err != nil {
		log.Print(err)
		return 1
	}
	var all []Finding
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			fmt.Fprintln(os.Stderr, e)
		}
		if len(pkg.TypeErrors) > 0 {
			return 1
		}
		fs, err := RunScoped(pkg, analyzers)
		if err != nil {
			log.Print(err)
			return 1
		}
		all = append(all, fs...)
	}
	fs, err := RunModule(pkgs, analyzers, true)
	if err != nil {
		log.Print(err)
		return 1
	}
	return report(append(all, fs...), jsonOut)
}

func report(findings []Finding, jsonOut bool) int {
	if jsonOut {
		type jsonFinding struct {
			Analyzer string `json:"analyzer"`
			Pos      string `json:"pos"`
			Message  string `json:"message"`
			URL      string `json:"url,omitempty"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer.Name,
				Pos:      f.Pos.String(),
				Message:  f.Message,
				URL:      f.Analyzer.URL,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			log.Print(err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f.String())
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// emitFlagsJSON prints the flag inventory in the JSON shape the go
// command parses to validate `go vet -vettool` command lines.
func emitFlagsJSON(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements -V=full: the go command fingerprints vet tools
// by this output to key its action cache. The format follows the
// convention set by cmd/internal/objabi.AddVersionFlag and x/tools.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
