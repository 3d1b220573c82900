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
	Name: "obsvonce",
	Doc:  "report obsv.Observer method calls outside their designated emission source",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), obsvPathSuffix) {
		return nil // the package defining Observer composes freely
	}
	iface := observerInterface(pass.Pkg)
	if iface == nil {
		return nil // obsv not in the import graph: nothing can emit
	}
	allowed := map[string]map[string]bool{}
	for method, funcs := range EmissionSources {
		allowed[method] = map[string]bool{}
		for _, f := range funcs {
			allowed[method][f] = true
		}
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, iface, allowed)
		}
	}
	return nil
}

// checkFunc reports stray Observer emissions inside fd (closures included).
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, iface *types.Interface, allowed map[string]map[string]bool) {
	qualified := pass.Pkg.Path() + "." + funcName(fd)
	// A method named like an Observer method on a type that itself
	// implements Observer is a forwarder (Multi, SkipAccepts, adapters):
	// calls to the same method are fan-out, not emission.
	forwards := ""
	if _, isObserverMethod := allowed[fd.Name.Name]; isObserverMethod && fd.Recv != nil {
		if recv := receiverType(pass, fd); recv != nil && implementsObserver(recv, iface) {
			forwards = fd.Name.Name
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
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
		selection, ok := pass.TypesInfo.Selections[sel]
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

// funcName renders fd as Func or Recv.Method (pointer stars stripped).
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// receiverType returns the (possibly pointer) receiver type of fd.
func receiverType(pass *analysis.Pass, fd *ast.FuncDecl) types.Type {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
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
