// Package obsvonce enforces PR 2's exactly-once observer-emission rule
// mechanically: every obsv.Observer event kind has exactly one designated
// source function per layer (tx at the transport, rx in the protocol's
// receive path, accept in Deps.Accept, and so on), and a call to an Observer
// method anywhere else is a spurious second emission that would double-count
// metrics, duplicate trace records and confuse the invariant checker.
//
// Allowed call sites for Observer method M:
//
//   - the designated source functions in the emission table below;
//   - a method itself named M on a type that implements obsv.Observer
//     (fan-out composites and adapter wrappers forward events without
//     emitting new ones);
//   - package obsv itself and _test.go files.
//
// The table is drift-checked: a row naming a function its loaded package no
// longer defines is reported, since it would permit emissions from any
// future function that takes the name.
package obsvonce

import (
	"go/ast"
	"go/types"
	"strings"

	"bbcast/internal/analysis"
)

// obsvPathSuffix identifies the observability package defining Observer.
const obsvPathSuffix = "internal/obsv"

// EmissionSources is PR 2's emission table: Observer method → the functions
// allowed to emit it, as "import/path.Func" or "import/path.Recv.Method"
// (pointer receivers spelled without the star). Closures count as their
// enclosing named function.
var EmissionSources = map[string][]string{
	// tx: one event per frame put on the air — the simulated medium's
	// transmit hook (installed in runner.run, the body of Run) and the UDP send path.
	"OnPacketTx": {
		"bbcast/internal/runner.run",
		"bbcast/internal/transport.UDPNode.send",
	},
	// rx: one event per frame handed to the protocol, emitted through the
	// Deps.ObserveRx choke point HandlePacket calls first.
	"OnPacketRx": {"bbcast/internal/core.Deps.ObserveRx"},
	// inject: one event per originated message — the simulation workload
	// scheduler and the live Broadcast entry point.
	"OnInject": {
		"bbcast/internal/runner.scheduleWorkload",
		"bbcast/internal/transport.UDPNode.Broadcast",
	},
	// accept: the single application-delivery choke point.
	"OnAccept": {"bbcast/internal/core.Deps.Accept"},
	// forward-suppressed: one event per redundant data frame declined, via
	// the Deps.ObserveSuppressed choke point shared with the baselines.
	"OnForwardSuppressed": {"bbcast/internal/core.Deps.ObserveSuppressed"},
	// role: committed overlay role transitions only.
	"OnRoleChange": {"bbcast/internal/core.Protocol.applyRole"},
	// suspicion: the detector hooks wired up in initDetectors (called from
	// New and again on amnesiac Rejoin).
	"OnSuspicion": {"bbcast/internal/core.Protocol.initDetectors"},
	// sigverify: the protocol's verify wrapper.
	"OnSigVerify": {"bbcast/internal/core.Protocol.verify"},
	// queue depth: the maintenance-tick sampler.
	"OnQueueDepth": {"bbcast/internal/core.Protocol.sampleQueues"},
	// admission: the protocol's admission/GC reporter and the transport's
	// ingress-drop path.
	"OnAdmission": {
		"bbcast/internal/core.Protocol.observeAdmission",
		"bbcast/internal/transport.UDPNode.readLoop",
	},
	// adaptation: the adaptive timer controller's commit choke point.
	"OnAdaptation": {"bbcast/internal/core.Protocol.observeAdaptation"},
	// retry: the bounded-retransmission reporter.
	"OnRetry": {"bbcast/internal/core.Protocol.observeRetry"},
	// sync: the catch-up sync reporter.
	"OnSync": {"bbcast/internal/core.Protocol.observeSync"},
	// rejoin: the amnesiac re-initialization path.
	"OnRejoin": {"bbcast/internal/core.Protocol.Rejoin"},
}

// Analyzer is the exactly-once emission pass.
var Analyzer = &analysis.Analyzer{
	Name:       "obsvonce",
	Doc:        "report obsv.Observer method calls outside their designated emission source",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	allowed := map[string]map[string]bool{}
	for method, funcs := range EmissionSources {
		allowed[method] = map[string]bool{}
		for _, f := range funcs {
			allowed[method][f] = true
		}
	}
	ifaces := map[*analysis.Package]*types.Interface{}
	for _, pkg := range prog.Packages {
		// The package defining Observer composes freely; a package without
		// obsv in its import graph cannot emit.
		if !strings.HasSuffix(pkg.Path, obsvPathSuffix) {
			ifaces[pkg] = observerInterface(pkg.Types)
		}
	}
	defined := map[string]bool{}
	prog.EachFunc(func(n *analysis.FuncNode) {
		if n.TestFile {
			return
		}
		defined[qualifiedName(n.Fn)] = true
		if iface := ifaces[n.Pkg]; iface != nil {
			checkFunc(pass, n, iface, allowed)
		}
	})
	// Table drift: a row naming a function its loaded package no longer
	// defines would permit emissions from whatever later takes the name.
	for _, pkg := range prog.Packages {
		for _, funcs := range EmissionSources {
			for _, f := range funcs {
				if strings.HasPrefix(f, pkg.Path+".") && !defined[f] {
					pass.Reportf(pkg.Files[0].Name.Pos(), "emission table drift: source %s no longer exists; update obsvonce.EmissionSources", f)
				}
			}
		}
	}
	return nil
}

// qualifiedName renders fn as the emission table spells it.
func qualifiedName(fn *types.Func) string {
	return fn.Pkg().Path() + "." + analysis.LocalName(fn)
}

// checkFunc reports stray Observer emissions inside n (closures included).
func checkFunc(pass *analysis.ProgramPass, n *analysis.FuncNode, iface *types.Interface, allowed map[string]map[string]bool) {
	qualified := qualifiedName(n.Fn)
	// A method named like an Observer method on a type that itself
	// implements Observer is a forwarder (Multi, SkipAccepts, adapters):
	// calls to the same method are fan-out, not emission.
	forwards := ""
	if _, isObserverMethod := allowed[n.Fn.Name()]; isObserverMethod {
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil && implementsObserver(recv.Type(), iface) {
			forwards = n.Fn.Name()
		}
	}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method := sel.Sel.Name
		sources, isObserverMethod := allowed[method]
		if !isObserverMethod {
			return true
		}
		selection, ok := n.Pkg.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return true
		}
		if !implementsObserver(selection.Recv(), iface) {
			return true
		}
		if method == forwards || sources[qualified] {
			return true
		}
		pass.Reportf(call.Pos(), "obsv.Observer.%s emitted outside its designated source (allowed: %s); route the event through the emitting layer instead",
			method, strings.Join(EmissionSources[method], ", "))
		return true
	})
}

// implementsObserver reports whether t (or *t) satisfies the Observer
// interface, or is that interface.
func implementsObserver(t types.Type, iface *types.Interface) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		if types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// observerInterface finds obsv.Observer in the import graph of pkg.
func observerInterface(pkg *types.Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if strings.HasSuffix(p.Path(), obsvPathSuffix) {
			if obj, ok := p.Scope().Lookup("Observer").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if iface := find(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	return find(pkg)
}
