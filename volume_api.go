package gimbal

import (
	"errors"
	"fmt"

	"gimbal/internal/blobstore"
	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/volume"
	"gimbal/internal/workload"
)

// Volume lifecycle sentinels. Every volume-related facade error wraps one
// of these for errors.Is dispatch.
var (
	// ErrVolumeNotFound reports a volume or snapshot name that does not
	// resolve.
	ErrVolumeNotFound = errors.New("gimbal: volume not found")
	// ErrVolumeExists reports a create or clone against a taken name.
	ErrVolumeExists = errors.New("gimbal: volume already exists")
	// ErrOutOfCapacity reports provisioning past the JBOF's physical
	// capacity (thick) or thin-provisioning budget (logical).
	ErrOutOfCapacity = errors.New("gimbal: out of capacity")
	// ErrSnapshotInUse reports a snapshot delete while clones still
	// reference it.
	ErrSnapshotInUse = errors.New("gimbal: snapshot in use")
	// ErrUnknownQoSClass reports a QoS class name outside the JBOF's
	// class set.
	ErrUnknownQoSClass = errors.New("gimbal: unknown QoS class")
)

// volErr translates control-plane sentinels into the facade vocabulary.
func volErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, volume.ErrNotFound):
		return fmt.Errorf("%w: %v", ErrVolumeNotFound, err)
	case errors.Is(err, volume.ErrExists):
		return fmt.Errorf("%w: %v", ErrVolumeExists, err)
	case errors.Is(err, volume.ErrOutOfCapacity):
		return fmt.Errorf("%w: %v", ErrOutOfCapacity, err)
	case errors.Is(err, volume.ErrSnapshotInUse):
		return fmt.Errorf("%w: %v", ErrSnapshotInUse, err)
	case errors.Is(err, volume.ErrUnknownClass):
		return fmt.Errorf("%w: %v", ErrUnknownQoSClass, err)
	}
	return err
}

// WithQoSClasses declares the JBOF's named QoS classes as
// "gold=8,silver=4,besteffort=1" (name=DRR weight, heaviest class gets
// the highest priority tag). On the Gimbal scheme the weights compile
// into the hierarchical scheduler's class level; volumes reference the
// classes by name. Without this option the JBOF still understands the
// default gold/silver/besteffort menu for volume placement, but the
// scheduler stays in flat (paper-identical) mode.
func WithQoSClasses(spec string) JBOFOption {
	return func(c *JBOFConfig) { c.QoSClasses = spec }
}

// Volume is a provisioned namespace on a JBOF: either a thin- or
// thick-provisioned managed volume (extent-mapped over the JBOF's SSDs,
// snapshot/clone-capable) or the whole-SSD identity volume of one raw
// device (WholeSSDVolume).
type Volume struct {
	j    *JBOF
	v    *volume.Volume // nil for whole-SSD identity volumes
	raw  int            // SSD index when v == nil
	name string
}

// Snapshot is a point-in-time image of a managed volume. Clones cut from
// it share extents copy-on-write.
type Snapshot struct {
	j *JBOF
	s *volume.Snapshot
}

type volumeConfig struct {
	class string
	thick bool
}

// VolumeOption customizes CreateVolume and Clone.
type VolumeOption func(*volumeConfig)

// WithQoSClass places the volume in a named QoS class (default: the
// first class).
func WithQoSClass(name string) VolumeOption { return func(c *volumeConfig) { c.class = name } }

// WithThick preallocates every extent at create time instead of
// allocating on first write.
func WithThick() VolumeOption { return func(c *volumeConfig) { c.thick = true } }

// volumes lazily builds the control plane: a system tenant with one
// session per SSD carries TRIMs of dropped spans, and the same sessions'
// credit headroom steers extent placement (§4.3's load signal). JBOFs
// that never touch the volume API never pay for any of this.
func (j *JBOF) volumes() *volume.Manager {
	if j.vmgr != nil {
		return j.vmgr
	}
	j.nextID++
	j.sysTenant = nvme.NewTenant(j.nextID, "volume-system")
	bc := blobstore.DefaultConfig()
	bc.Replicas = 1
	caps := make([]int64, len(j.stack.NAND))
	backends := make([]*blobstore.Backend, len(j.stack.NAND))
	for i := range j.stack.NAND {
		sess := j.target.Connect(j.sysTenant, i)
		j.sysSess = append(j.sysSess, sess)
		caps[i] = j.stack.NAND[i].Capacity()
		backends[i] = &blobstore.Backend{
			Target:   sess,
			Headroom: sess.Headroom,
			Capacity: caps[i],
		}
	}
	local := blobstore.NewLocal(blobstore.NewGlobal(bc, caps), backends)
	j.vmgr = volume.NewManager(j.sim.loop, volume.DefaultConfig(), local, j.classes,
		func(b int) volume.Target { return j.sysSess[b] })
	return j.vmgr
}

// CreateVolume provisions a managed volume of sizeBytes logical bytes,
// thin by default.
func (j *JBOF) CreateVolume(name string, sizeBytes int64, opts ...VolumeOption) (*Volume, error) {
	var c volumeConfig
	for _, o := range opts {
		o(&c)
	}
	vv, err := j.volumes().Create(volume.Spec{Name: name, Size: sizeBytes, Class: c.class, Thick: c.thick})
	if err != nil {
		return nil, volErr(err)
	}
	return &Volume{j: j, v: vv, raw: -1, name: name}, nil
}

// Volume resolves a managed volume by name.
func (j *JBOF) Volume(name string) (*Volume, error) {
	vv, err := j.volumes().Lookup(name)
	if err != nil {
		return nil, volErr(err)
	}
	return &Volume{j: j, v: vv, raw: -1, name: name}, nil
}

// Volumes lists managed volumes in creation order.
func (j *JBOF) Volumes() []*Volume {
	vs := j.volumes().List()
	out := make([]*Volume, len(vs))
	for i, vv := range vs {
		out[i] = &Volume{j: j, v: vv, raw: -1, name: vv.Name()}
	}
	return out
}

// Snapshot resolves a snapshot by name.
func (j *JBOF) Snapshot(name string) (*Snapshot, error) {
	ss, err := j.volumes().LookupSnapshot(name)
	if err != nil {
		return nil, volErr(err)
	}
	return &Snapshot{j: j, s: ss}, nil
}

// VolumeUsage is the JBOF's provisioning accounting: physical capacity,
// bytes held by live unique spans, logical bytes promised to volumes,
// and data-path counters of the mapping layer.
type VolumeUsage struct {
	CapacityBytes  int64
	AllocatedBytes int64
	LogicalBytes   int64
	Volumes        int
	Snapshots      int
	CowCopies      int64
	CowBytesCopied int64
	ZeroReads      int64
	Trims          int64
}

// VolumeUsage reports current provisioning accounting.
func (j *JBOF) VolumeUsage() VolumeUsage {
	u := j.volumes().Usage()
	return VolumeUsage{
		CapacityBytes:  u.CapacityBytes,
		AllocatedBytes: u.AllocatedBytes,
		LogicalBytes:   u.LogicalBytes,
		Volumes:        u.Volumes,
		Snapshots:      u.Snapshots,
		CowCopies:      u.CowCopies,
		CowBytesCopied: u.CowBytesCopied,
		ZeroReads:      u.ZeroReads,
		Trims:          u.Trims,
	}
}

// WholeSSDVolume returns the identity volume covering one raw SSD, or
// ErrBadSSDIndex for an index outside the JBOF. It bypasses the mapping
// layer entirely: offsets pass through to the device unchanged.
func (j *JBOF) WholeSSDVolume(ssdIdx int) (*Volume, error) {
	if err := j.checkSSD(ssdIdx); err != nil {
		return nil, err
	}
	if j.rawVols == nil {
		j.rawVols = make(map[int]*Volume)
	}
	if v, ok := j.rawVols[ssdIdx]; ok {
		return v, nil
	}
	v := &Volume{j: j, raw: ssdIdx, name: fmt.Sprintf("ssd-%d", ssdIdx)}
	j.rawVols[ssdIdx] = v
	return v, nil
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// Capacity returns the volume's logical size in bytes (for a whole-SSD
// identity volume, the device's usable bytes).
func (v *Volume) Capacity() int64 {
	if v.v == nil {
		return v.j.stack.NAND[v.raw].Capacity()
	}
	return v.v.Size()
}

// QoSClass returns the volume's class name ("" for whole-SSD identity
// volumes, which predate classes).
func (v *Volume) QoSClass() string {
	if v.v == nil {
		return ""
	}
	return v.v.ClassName()
}

// Resize grows or shrinks a managed volume.
func (v *Volume) Resize(newSize int64) error {
	if v.v == nil {
		return fmt.Errorf("%w: whole-SSD volume %q cannot be resized", ErrVolumeNotFound, v.name)
	}
	return volErr(v.j.volumes().Resize(v.name, newSize))
}

// Delete removes a managed volume, dropping its extent references.
func (v *Volume) Delete() error {
	if v.v == nil {
		return fmt.Errorf("%w: whole-SSD volume %q cannot be deleted", ErrVolumeNotFound, v.name)
	}
	return volErr(v.j.volumes().Delete(v.name))
}

// Snapshot cuts a point-in-time snapshot of a managed volume.
func (v *Volume) Snapshot(name string) (*Snapshot, error) {
	if v.v == nil {
		return nil, fmt.Errorf("%w: whole-SSD volume %q cannot be snapshotted", ErrVolumeNotFound, v.name)
	}
	ss, err := v.j.volumes().Snapshot(v.name, name)
	if err != nil {
		return nil, volErr(err)
	}
	return &Snapshot{j: v.j, s: ss}, nil
}

// Name returns the snapshot name.
func (s *Snapshot) Name() string { return s.s.Name() }

// Capacity returns the snapshot's logical size in bytes.
func (s *Snapshot) Capacity() int64 { return s.s.Size() }

// Clones returns the number of live clones cut from the snapshot.
func (s *Snapshot) Clones() int { return s.s.Clones() }

// Clone cuts a writable volume from the snapshot. The clone shares
// extents with the snapshot until first write (copy-on-write) and may be
// placed in a different QoS class than its source.
func (s *Snapshot) Clone(name string, opts ...VolumeOption) (*Volume, error) {
	var c volumeConfig
	for _, o := range opts {
		o(&c)
	}
	vv, err := s.j.volumes().Clone(s.s.Name(), name, c.class)
	if err != nil {
		return nil, volErr(err)
	}
	return &Volume{j: s.j, v: vv, raw: -1, name: name}, nil
}

// Delete removes the snapshot. Fails with ErrSnapshotInUse while clones
// reference it.
func (s *Snapshot) Delete() error {
	return volErr(s.j.volumes().DeleteSnapshot(s.s.Name()))
}

// volTarget adapts a managed volume plus the stream's per-SSD sessions
// into a workload.Target: the mapping layer routes each IO (and any COW
// copy traffic it triggers) through the owning tenant's own sessions, so
// amplification is charged to the tenant that caused it.
type volTarget struct {
	vol    *volume.Volume
	sess   []*fabric.Session
	router volume.Router
}

func newVolTarget(vol *volume.Volume, sess []*fabric.Session) *volTarget {
	t := &volTarget{vol: vol, sess: sess}
	t.router = func(b int) volume.Target { return t.sess[b] }
	return t
}

func (t *volTarget) Submit(io *nvme.IO) { t.vol.Route(io, t.router) }

// StartWorkload attaches a new tenant running the described stream
// against this volume. On a managed volume the tenant inherits the
// volume's QoS class: its scheduler class index, its default priority
// tag, and — unless WithRetry overrides it — the class's client retry
// policy. The stream's index in global StartWorkload order remains its
// address for fabric fault events.
func (v *Volume) StartWorkload(opts ...WorkloadOption) (*Stream, error) {
	var c workloadConfig
	for _, o := range opts {
		o(&c)
	}
	w := c.w
	if w.IOSize == 0 {
		w.IOSize = 4096
	}
	if w.QueueDepth == 0 {
		w.QueueDepth = 1
	}
	if w.MaxConsecutiveErrs == 0 {
		w.MaxConsecutiveErrs = 64
	} else if w.MaxConsecutiveErrs < 0 {
		w.MaxConsecutiveErrs = 0
	}
	j := v.j
	j.nextID++
	name := w.Name
	if name == "" {
		name = fmt.Sprintf("tenant-%d", j.nextID)
	}
	tenant := nvme.NewTenant(j.nextID, name)

	var target workload.Target
	var sessions []*fabric.Session
	span := v.Capacity()
	if v.v == nil {
		// Identity volume: the tenant talks straight to its SSD's
		// pipeline, exactly as the pre-volume API did.
		sess := j.target.Connect(tenant, v.raw)
		if c.retry != nil {
			sess.SetRetryPolicy(*c.retry)
		}
		sessions = []*fabric.Session{sess}
		target = sess
	} else {
		spec := j.classes.Spec(v.v.Class())
		tenant.Class = v.v.Class()
		if !c.prioSet {
			w.Priority = Priority(spec.Priority)
		}
		retry := c.retry
		if retry == nil && spec.RetryTimeout > 0 {
			retry = &fabric.RetryPolicy{
				Timeout:    spec.RetryTimeout,
				MaxRetries: spec.RetryMax,
				Backoff:    spec.RetryBackoff,
				BackoffCap: spec.RetryBackoffCap,
			}
		}
		sessions = make([]*fabric.Session, len(j.stack.NAND))
		for i := range j.stack.NAND {
			sessions[i] = j.target.Connect(tenant, i)
			if retry != nil {
				sessions[i].SetRetryPolicy(*retry)
			}
		}
		target = newVolTarget(v.v, sessions)
	}
	prof := workload.Profile{
		Name:               name,
		ReadRatio:          w.Read,
		IOSize:             w.IOSize,
		QD:                 w.QueueDepth,
		Seq:                w.Sequential,
		Priority:           nvme.Priority(w.Priority),
		RateLimitBps:       int64(w.RateLimitMBps * 1e6),
		Span:               span,
		MaxConsecutiveErrs: w.MaxConsecutiveErrs,
	}
	wk := workload.NewWorker(j.sim.loop, j.sim.rng.Fork(), prof, tenant, target)
	wk.Start(j.sim.loop.Now() + 10*3600*sim.Second)
	st := &Stream{sim: j.sim, worker: wk, sess: sessions[0], sesss: sessions}
	j.streams = append(j.streams, st)
	return st, nil
}

// View returns the volume's virtual view (§3.7). A whole-SSD identity
// volume reports its device's view; a managed volume aggregates across
// every SSD its extents can land on — rates and shares sum, write cost
// takes the worst device, Degraded/Failed report any device in that
// state. Only the Gimbal scheme computes views (ErrNoView otherwise).
func (v *Volume) View() (View, error) {
	if v.v == nil {
		return v.j.ssdView(v.raw)
	}
	var out View
	for i := range v.j.stack.NAND {
		sv, err := v.j.ssdView(i)
		if err != nil {
			return View{}, err
		}
		out.TargetRateMBps += sv.TargetRateMBps
		out.CompletionRateMBps += sv.CompletionRateMBps
		out.ReadShareMBps += sv.ReadShareMBps
		out.WriteShareMBps += sv.WriteShareMBps
		if sv.WriteCost > out.WriteCost {
			out.WriteCost = sv.WriteCost
		}
		out.Degraded = out.Degraded || sv.Degraded
		out.Failed = out.Failed || sv.Failed
	}
	return out, nil
}
