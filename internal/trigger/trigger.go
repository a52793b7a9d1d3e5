// Package trigger implements Ode triggers (paper, section 6): per-object
// activations of class-declared triggers, once-only and perpetual
// flavors, condition evaluation at the end of each transaction, and
// weakly-coupled action transactions — a firing schedules the action as
// an independent transaction that runs after (but not necessarily
// immediately after) the triggering transaction commits; if the
// triggering transaction aborts, its fired actions never run.
//
// Activations are durable: each is a persistent object of the reserved
// system class "__activation", so they ride the ordinary WAL/recovery
// machinery and survive restarts. The trigger id the paper's
// `trigger-id object-id->T(args)` syntax returns is the activation
// object's OID.
//
// As an extension (the paper's companion work on timed triggers), an
// activation may carry a deadline; ExpireBefore fires the trigger's
// timeout action for activations whose deadline passed without the
// condition becoming true.
package trigger

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/txn"
)

// ActivationClassName is the reserved class holding trigger activations.
const ActivationClassName = "__activation"

// Sentinel errors.
var (
	// ErrNoTrigger is returned when the target's class declares no
	// trigger of the requested name.
	ErrNoTrigger = errors.New("trigger: class declares no such trigger")
	// ErrNotActivation is returned when a deactivation id does not name
	// an activation object.
	ErrNotActivation = errors.New("trigger: id does not name an activation")
)

// RegisterActivationClass adds the system activation class to a schema.
// The database layer calls it before opening the store so activation
// records decode everywhere.
func RegisterActivationClass(s *core.Schema) *core.Class {
	if c, ok := s.ClassNamed(ActivationClassName); ok {
		return c
	}
	return core.NewClass(ActivationClassName).
		Field("target", core.TAnyRef).
		Field("trigger", core.TString).
		Field("args", core.ArrayOfType(nil)).
		Field("perpetual", core.TBool).
		Field("active", core.TBool).
		Field("deadline", core.TInt). // unix nanoseconds; 0 = none
		Register(s)
}

// firing is a condition that came true in a (not yet committed)
// transaction.
type firing struct {
	activation  core.OID
	target      core.OID
	triggerName string
	class       *core.Class
	args        []core.Value
	timeout     bool // fire the timeout action instead of the action
}

// ActionError records a failed (aborted) trigger-action transaction.
type ActionError struct {
	Activation core.OID
	Target     core.OID
	Trigger    string
	Err        error
}

func (e ActionError) Error() string {
	return fmt.Sprintf("trigger: action %s on @%d (activation @%d): %v", e.Trigger, e.Target, e.Activation, e.Err)
}

// Service wires trigger semantics into a transaction engine. Create it
// with NewService, which installs the engine hooks.
type Service struct {
	engine   *txn.Engine
	actClass *core.Class
	sync     bool // run actions inline in PostCommit (deterministic tests)
	met      *obs.TriggerMetrics

	mu       sync.Mutex
	byTarget map[core.OID]map[core.OID]bool // target -> activation oids
	pending  map[uint64][]firing            // txid -> fired this tx
	suppress map[uint64]core.OID            // action txid -> its own activation
	errs     []ActionError
	wg       sync.WaitGroup
}

// NewService installs trigger processing on the engine. If syncActions
// is true, fired actions run inline at commit (still as independent
// transactions); otherwise they run on background goroutines and
// Wait drains them.
func NewService(engine *txn.Engine, syncActions bool) (*Service, error) {
	schema := engine.Manager().Schema()
	actClass, ok := schema.ClassNamed(ActivationClassName)
	if !ok {
		return nil, fmt.Errorf("trigger: schema lacks %s (call RegisterActivationClass before opening)", ActivationClassName)
	}
	s := &Service{
		engine:   engine,
		actClass: actClass,
		sync:     syncActions,
		met:      &obs.TriggerMetrics{},
		byTarget: make(map[core.OID]map[core.OID]bool),
		pending:  make(map[uint64][]firing),
		suppress: make(map[uint64]core.OID),
	}
	if !engine.Manager().HasCluster(actClass) {
		if err := engine.Manager().CreateCluster(actClass); err != nil {
			return nil, err
		}
	}
	if err := s.loadActivations(); err != nil {
		return nil, err
	}
	engine.PreCommit = s.preCommit
	engine.PostCommit = s.postCommit
	engine.PostAbort = s.postAbort
	return s, nil
}

// SetMetrics attaches the trigger metric set; tm must be non-nil.
func (s *Service) SetMetrics(tm *obs.TriggerMetrics) { s.met = tm }

// loadActivations rebuilds the in-memory target index from the
// activation extent (after open or recovery).
func (s *Service) loadActivations() error {
	mgr := s.engine.Manager()
	oids, err := mgr.ClusterOIDs(s.actClass)
	if err != nil {
		return err
	}
	for _, oid := range oids {
		o, _, err := mgr.Get(oid)
		if err != nil {
			return err
		}
		if target, ok := o.MustGet("target").AnyOID(); ok && o.MustGet("active").Bool() {
			s.indexActivation(target, oid)
		}
	}
	return nil
}

func (s *Service) indexActivation(target, act core.OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byTarget[target]
	if m == nil {
		m = make(map[core.OID]bool)
		s.byTarget[target] = m
	}
	m[act] = true
}

func (s *Service) unindexActivation(target, act core.OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.byTarget[target]; m != nil {
		delete(m, act)
		if len(m) == 0 {
			delete(s.byTarget, target)
		}
	}
}

// Activate arms trigger `name` on the target object with the given
// arguments, inside tx (the paper's `trigger-id = object->T(args)`).
// The returned OID is the trigger id used for deactivation.
func (s *Service) Activate(tx *txn.Tx, target core.OID, name string, args ...core.Value) (core.OID, error) {
	return s.activate(tx, target, name, 0, args)
}

// ActivateWithin arms a timed trigger: if the condition has not fired
// by the deadline, ExpireBefore fires the trigger's timeout action (or
// just deactivates it when the trigger has none).
func (s *Service) ActivateWithin(tx *txn.Tx, target core.OID, name string, deadline time.Time, args ...core.Value) (core.OID, error) {
	return s.activate(tx, target, name, deadline.UnixNano(), args)
}

func (s *Service) activate(tx *txn.Tx, target core.OID, name string, deadline int64, args []core.Value) (core.OID, error) {
	targetObj, err := tx.Deref(target)
	if err != nil {
		return core.NilOID, err
	}
	def, ok := targetObj.Class().TriggerNamed(name)
	if !ok {
		return core.NilOID, fmt.Errorf("%w: %s::%s", ErrNoTrigger, targetObj.Class().Name, name)
	}
	if len(def.Params) != len(args) {
		return core.NilOID, fmt.Errorf("trigger: %s::%s expects %d arguments, got %d",
			targetObj.Class().Name, name, len(def.Params), len(args))
	}
	act := core.NewObject(s.actClass)
	act.MustSet("target", core.Ref(target))
	act.MustSet("trigger", core.Str(name))
	arr := core.NewArray(args...)
	act.MustSet("args", core.ArrayOf(arr))
	act.MustSet("perpetual", core.Bool(def.Perpetual))
	act.MustSet("active", core.Bool(true))
	act.MustSet("deadline", core.Int(deadline))
	oid, err := tx.PNew(s.actClass, act)
	if err == nil {
		s.met.Activations.Inc()
	}
	return oid, err
}

// Deactivate disarms a trigger activation by id, inside tx (the paper's
// explicit deactivation).
func (s *Service) Deactivate(tx *txn.Tx, id core.OID) error {
	o, err := tx.Deref(id)
	if err != nil {
		return err
	}
	if o.Class() != s.actClass {
		return fmt.Errorf("%w: @%d is a %s", ErrNotActivation, id, o.Class().Name)
	}
	return tx.PDelete(id)
}

// DeactivateAll disarms every activation of the named trigger on the
// target (the paper's `trigger object-id->T(arguments)` deactivation
// form).
func (s *Service) DeactivateAll(tx *txn.Tx, target core.OID, name string) error {
	s.mu.Lock()
	var acts []core.OID
	for act := range s.byTarget[target] {
		acts = append(acts, act)
	}
	s.mu.Unlock()
	for _, act := range acts {
		o, err := tx.Deref(act)
		if err != nil {
			continue // racing deactivation
		}
		if o.MustGet("trigger").Str() == name {
			if err := tx.PDelete(act); err != nil {
				return err
			}
		}
	}
	return nil
}

// ActiveOn lists the active activation ids on a target (diagnostics).
func (s *Service) ActiveOn(target core.OID) []core.OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []core.OID
	for act := range s.byTarget[target] {
		out = append(out, act)
	}
	return out
}

// Errors returns (and clears) the errors of failed action transactions.
func (s *Service) Errors() []ActionError {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.errs
	s.errs = nil
	return out
}

// Wait blocks until all scheduled (asynchronous) trigger actions have
// finished, including actions those actions fired in turn.
func (s *Service) Wait() { s.wg.Wait() }

// preCommit evaluates trigger conditions over the transaction's write
// set — "conceptually, trigger conditions are evaluated at the end of
// each transaction". Fired once-only activations are deactivated as
// part of the same transaction.
func (s *Service) preCommit(tx *txn.Tx) error {
	// Candidate activations: those indexed on touched targets, plus
	// activation objects created by this very transaction (the
	// activating transaction evaluates its own activations too).
	writeSet := tx.WriteSet()
	seen := make(map[core.OID]bool)
	var candidates []core.OID
	s.mu.Lock()
	for _, oid := range writeSet {
		for act := range s.byTarget[oid] {
			if !seen[act] {
				seen[act] = true
				candidates = append(candidates, act)
			}
		}
	}
	s.mu.Unlock()
	for _, oid := range writeSet {
		if tx.Created(oid) && !tx.IsDeleted(oid) && !seen[oid] {
			o, err := tx.Deref(oid)
			if err == nil && o.Class() == s.actClass {
				seen[oid] = true
				candidates = append(candidates, oid)
			}
		}
	}
	s.mu.Lock()
	suppressed := s.suppress[tx.ID()]
	s.mu.Unlock()
	var fired []firing
	for _, actOID := range candidates {
		if tx.IsDeleted(actOID) {
			continue
		}
		if actOID == suppressed {
			// A perpetual activation never re-evaluates inside the
			// action transaction it spawned itself; otherwise an action
			// that leaves the condition true would fire forever.
			continue
		}
		act, err := tx.Deref(actOID)
		if err != nil {
			continue // concurrently removed
		}
		if !act.MustGet("active").Bool() {
			continue
		}
		target, ok := act.MustGet("target").AnyOID()
		if !ok || tx.IsDeleted(target) {
			continue
		}
		targetObj, err := tx.Deref(target)
		if err != nil {
			continue
		}
		name := act.MustGet("trigger").Str()
		def, ok := targetObj.Class().TriggerNamed(name)
		if !ok {
			continue
		}
		args := act.MustGet("args").Array().Elems()
		cond, err := def.Cond(tx, targetObj, args)
		if err != nil {
			return fmt.Errorf("trigger: condition %s::%s on @%d: %w", targetObj.Class().Name, name, target, err)
		}
		if !cond {
			continue
		}
		if !def.Perpetual {
			// Once-only: the firing deactivates the trigger within the
			// triggering transaction.
			act.MustSet("active", core.Bool(false))
			if err := tx.Update(actOID, act); err != nil {
				return err
			}
		}
		fired = append(fired, firing{
			activation:  actOID,
			target:      target,
			triggerName: name,
			class:       targetObj.Class(),
			args:        args,
		})
	}
	if len(fired) > 0 {
		s.mu.Lock()
		s.pending[tx.ID()] = fired
		s.mu.Unlock()
	}
	return nil
}

// postCommit maintains the activation index and schedules the
// transaction's fired actions as independent transactions.
func (s *Service) postCommit(tx *txn.Tx) {
	// Index maintenance for created/deleted/updated activation objects.
	// The transaction's buffered write images are the committed state,
	// so non-activation writes (the vast majority) are filtered on the
	// buffered class alone — no store reads on the commit path.
	for _, oid := range tx.WriteSet() {
		if tx.IsDeleted(oid) {
			// Was it an activation? The index holds it if so.
			s.mu.Lock()
			for target, m := range s.byTarget {
				if m[oid] {
					delete(m, oid)
					if len(m) == 0 {
						delete(s.byTarget, target)
					}
					break
				}
			}
			s.mu.Unlock()
			continue
		}
		o := tx.WrittenObject(oid)
		if o == nil || o.Class() != s.actClass {
			continue
		}
		target, ok := o.MustGet("target").AnyOID()
		if !ok {
			continue
		}
		if o.MustGet("active").Bool() {
			s.indexActivation(target, oid)
		} else {
			s.unindexActivation(target, oid)
		}
	}
	s.mu.Lock()
	fired := s.pending[tx.ID()]
	delete(s.pending, tx.ID())
	s.mu.Unlock()
	for _, f := range fired {
		s.met.Firings.Inc()
		s.schedule(f)
	}
}

// postAbort drops the aborted transaction's fired set: "If the
// triggering transaction is aborted, the trigger actions generated by
// it are aborted."
func (s *Service) postAbort(tx *txn.Tx) {
	s.mu.Lock()
	delete(s.pending, tx.ID())
	s.mu.Unlock()
}

// schedule runs a fired action as its own transaction (weak coupling).
func (s *Service) schedule(f firing) {
	run := func() {
		if err := s.runAction(f); err != nil {
			s.met.ActionErrors.Inc()
			s.mu.Lock()
			s.errs = append(s.errs, ActionError{
				Activation: f.activation,
				Target:     f.target,
				Trigger:    f.triggerName,
				Err:        err,
			})
			s.mu.Unlock()
		}
	}
	if s.sync {
		run()
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		run()
	}()
}

func (s *Service) runAction(f firing) error {
	def, ok := f.class.TriggerNamed(f.triggerName)
	if !ok {
		return fmt.Errorf("%w: %s::%s", ErrNoTrigger, f.class.Name, f.triggerName)
	}
	action := def.Action
	if f.timeout {
		if def.TimeoutAction == nil {
			return nil
		}
		action = def.TimeoutAction
	}
	atx := s.engine.Begin()
	s.mu.Lock()
	s.suppress[atx.ID()] = f.activation
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.suppress, atx.ID())
		s.mu.Unlock()
	}()
	targetObj, err := atx.Deref(f.target)
	if err != nil {
		atx.Abort()
		if errors.Is(err, object.ErrNoObject) {
			return nil // target deleted between firing and action: drop
		}
		return err
	}
	if err := action(atx, targetObj, f.target, f.args); err != nil {
		atx.Abort()
		return err
	}
	return atx.Commit()
}

// ExpireBefore fires timeout actions for active timed activations whose
// deadline is before now, deactivating them. It returns how many
// expired. The database layer (or a test) drives the clock.
func (s *Service) ExpireBefore(now time.Time) (int, error) {
	mgr := s.engine.Manager()
	var expired []core.OID
	oids, err := mgr.ClusterOIDs(s.actClass)
	if err != nil {
		return 0, err
	}
	for _, oid := range oids {
		o, _, err := mgr.Get(oid)
		if err != nil {
			return 0, err
		}
		d := o.MustGet("deadline").Int()
		if d != 0 && d < now.UnixNano() && o.MustGet("active").Bool() {
			expired = append(expired, oid)
		}
	}
	n := 0
	for _, actOID := range expired {
		tx := s.engine.Begin()
		act, err := tx.Deref(actOID)
		if err != nil {
			tx.Abort()
			continue
		}
		if !act.MustGet("active").Bool() {
			tx.Abort()
			continue
		}
		act.MustSet("active", core.Bool(false))
		if err := tx.Update(actOID, act); err != nil {
			tx.Abort()
			return n, err
		}
		target, _ := act.MustGet("target").AnyOID()
		targetObj, err := tx.Deref(target)
		if err != nil {
			tx.Abort()
			continue
		}
		name := act.MustGet("trigger").Str()
		if err := tx.Commit(); err != nil {
			return n, err
		}
		n++
		s.met.Timeouts.Inc()
		s.schedule(firing{
			activation:  actOID,
			target:      target,
			triggerName: name,
			class:       targetObj.Class(),
			args:        act.MustGet("args").Array().Elems(),
			timeout:     true,
		})
	}
	return n, nil
}
